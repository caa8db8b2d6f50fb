//! The harness must never measure differently compiled kernels: its
//! `[profile.release]` table has to equal the root manifest's.

use std::path::Path;

/// The `key = value` lines of `[profile.release]`, sorted.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| {
            l.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_equals_the_root_manifest() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = release_profile(&here.join("../Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has no [profile.release]");
    assert_eq!(release_profile(&here.join("Cargo.toml")), root);
}
