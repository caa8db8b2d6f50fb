#!/usr/bin/env bash
# Build qsim-kernels in release, emit its assembly, and fail if a SIMD
# kernel's loops contain a call.
#
# The kernels are `#[target_feature]` functions. A `core::arch` intrinsic
# (or an `inline(always)` helper) whose required features are not a subset
# of the function's is silently NOT inlined: the hot loop then contains a
# `call`, a `vzeroupper` and a spill of every live vector register, and the
# callee may execute instructions the host check never covered. Nothing
# but the disassembly shows it.
#
# Fails when, inside a kernel symbol,
#   * any call targets a `core_arch` intrinsic (anywhere in the function), or
#   * any call sits inside a loop — between a label and a later jump back
#     to it — unless it is a diverging panic/unwind routine (the cold arm
#     of a bounds check may be laid out inside the loop body) or a blocked
#     entry's hand-off to its own `g1` symbol (it runs once, after the
#     loops, wherever the block is laid out), or
#   * in a block-lane entry that blocks 4 or more rows over G >= 2 lane
#     groups (every gate of k >= 2), the loops hold more than one matrix
#     broadcast (`vbroadcasts[sd]`, or a `{1toN}` memory operand) per two
#     `vfmadd`s: the register block exists so that one broadcast feeds G
#     FMAs, and a compiler or refactor that falls back to a broadcast per
#     FMA costs a third of the kernel's speed without failing any test,
# or when an expected kernel symbol is missing from the assembly.
set -euo pipefail
cd "$(dirname "$0")/.."

target_dir="${CARGO_TARGET_DIR:-target}/kernel-asm"
cargo rustc --release -p qsim-kernels --lib --target-dir "$target_dir" \
    -- --emit asm -C codegen-units=1
asm="$(ls -t "$target_dir"/release/deps/qsim_kernels-*.s | head -1)"

python3 - "$asm" <<'PY'
import re, sys

# Mangled-name fragments of every `#[target_feature]` kernel in the crate:
# the block-lane entry points at 512 bits (f64x4 / f32x8 blocks per vector)
# and 256 bits (f64x2 / f32x4), each `r<rows>g<groups>` register block with
# the `g1` symbol that takes the groups it leaves over, the Fig. 2 step-2
# rung, the scalar step-3 kernel's FMA wrapper, and the diagonal fold of
# the tiled sweep at every vector (`x1`: the scalar fold, FMA-compiled —
# a `mul_add` that does not inline is a libm `fma` call per component).
BLOCKS = {"f64x4": ((2, 4), (4, 4), (8, 2)), "f32x8": ((2, 4), (4, 4), (8, 2)),
          "f64x2": ((2, 4), (4, 2)), "f32x4": ((2, 4), (4, 2))}
BLOCKED = [rf"4lane3x86\d+{v}_r{r}g{g}[0-9A-Z]"
           for v, blocks in BLOCKS.items() for r, g in blocks]
KERNELS = BLOCKED + [
    rf"4lane3x86\d+{v}_r{r}g1[0-9A-Z]" for v, blocks in BLOCKS.items() for r, _ in blocks
] + [r"3avx\d+apply_avx_eq1_impl", r"3opt\d+blocked_range_fma"] + [
    rf"5sweep3x86\d+fold_{v}[0-9A-Z]" for v in ("f64x1", "f32x1", "f64x2", "f32x4", "f64x4", "f32x8")
]
# The entries held to one matrix broadcast per two FMAs.
SHARED_BROADCAST = [p for p in BLOCKED if "_r2g" not in p]
COLD = re.compile(r"4lane3x86\d+\w+_r\d+g1[0-9A-Z]|panic|slice_index|_fail|handle_error|handle_alloc_error|_Unwind_Resume|unwrap_failed")

label = re.compile(r"^(\.L[\w$.]+):")
jump = re.compile(r"^\s+j\w+\s+(\.L[\w$.]+)")
call = re.compile(r"^\s+callq?\s+(.*)")
fma = re.compile(r"^\s+vfn?m(add|sub)\d+[ps][sd]\s")
broadcast = re.compile(r"^\s+vbroadcasts[sd]\s|\{1to\d+\}")

functions, name, body = {}, None, []
for line in open(sys.argv[1]):
    m = re.match(r"^(_ZN\S+|_R\S+):\s*$", line)
    if m:
        name, body = m.group(1), []
    elif name and ".cfi_endproc" in line:
        functions[name], name = body, None
    elif name:
        body.append(line.rstrip("\n"))

failures = []
for pat in KERNELS:
    hits = [n for n in functions if re.search(pat, n)]
    if not hits:
        failures.append(f"kernel symbol /{pat}/ not found in the assembly")
    for n in hits:
        lines = functions[n]
        at = {label.match(l).group(1): i for i, l in enumerate(lines) if label.match(l)}
        loops = [(at[j.group(1)], i) for i, l in enumerate(lines)
                 if (j := jump.match(l)) and at.get(j.group(1), i + 1) <= i]
        for i, l in enumerate(lines):
            c = call.match(l)
            if not c:
                continue
            callee = c.group(1)
            if "core_arch" in callee:
                failures.append(f"{n}: non-inlined intrinsic: {callee}")
            elif any(a <= i <= b for a, b in loops) and not COLD.search(callee):
                failures.append(f"{n}: call inside a loop: {callee}")
        looped = [l for i, l in enumerate(lines) if any(a <= i <= b for a, b in loops)]
        fmas = sum(1 for l in looped if fma.match(l))
        broadcasts = sum(1 for l in looped if broadcast.search(l))
        if pat in SHARED_BROADCAST and not 0 < 2 * broadcasts <= fmas:
            failures.append(f"{n}: {broadcasts} matrix broadcasts for {fmas} FMAs inside "
                            f"its loops (want at most one per two)")
        print(f"ok   {n}: {len(loops)} loops, "
              f"{sum(1 for l in lines if call.match(l))} calls outside them or diverging, "
              f"{broadcasts} broadcasts / {fmas} FMAs")

if failures:
    print("\nSIMD kernel assembly check FAILED:", *failures, sep="\n  ", file=sys.stderr)
    sys.exit(1)
print(f"SIMD kernel assembly check passed ({len(KERNELS)} kernels)")
PY
