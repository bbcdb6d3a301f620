"""The benchmark-analog suite.

One analog per paper benchmark (Table 1): six SPECint95 programs —
compress, gcc, ijpeg, li, m88ksim, perl — and the UNIX applications —
chess, gs, pgp, plot, python, ss (SimpleScalar itself), tex.  ``perl`` and
``ss`` additionally come in ``_a``/``_b`` input-set variants, which §5.2
uses to study profile sensitivity.

Structural principles (what makes the analogs behave like the originals):

* **Phases iterate.**  Real program phases are loops executed thousands of
  times; every analog phase iterates enough (scaled ~50-70 visits x 2
  rounds) that the branches of kernels co-resident in a phase accumulate
  pairwise interleave counts above the paper's threshold of 100 — that is
  what gives working sets their size.
* **Per-call work is small.**  Input-consuming kernels take byte limits and
  table kernels small op counts, so a phase iteration costs a few thousand
  instructions and whole runs fit the downsampled budget.
* **Replication sets the static scale.**  Each benchmark instantiates many
  textual copies of kernels with varied parameters (a compiler has many
  similar-shaped functions); branch-rich analogs (gcc, python, chess, gs,
  ss) get the most copies.  Combined with text scattering in the builder,
  this makes conventional PC-modulo BHT indexing alias the way it does for
  real binaries — the interference branch allocation removes.

The ``scale`` knob multiplies iteration counts; 1.0 is the full analog used
by the benchmark harness, ~0.15 runs the suite in seconds for integration
tests (with proportionally lower interleave counts — tests use scaled-down
thresholds).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .build import InputSpec, KernelCall, PhaseSpec, WorkloadSpec

__all__ = [
    "benchmark_names",
    "benchmark_suite",
    "get_benchmark",
]

#: Aliases: the un-suffixed names used by Table 2 / the figures resolve to
#: the ``_a`` input set where variants exist.
_ALIASES = {"perl": "perl_a", "ss": "ss_a"}

ArgsFn = Callable[[int], Tuple[int, ...]]


class _Replicator:
    """Hands out fresh kernel instances within one workload spec."""

    def __init__(self) -> None:
        self._next: Dict[str, int] = {}

    def take(
        self, kernel: str, count: int, args_fn: ArgsFn
    ) -> List[KernelCall]:
        """*count* fresh instances of *kernel*; args vary by local index."""
        start = self._next.get(kernel, 0)
        self._next[kernel] = start + count
        return [
            KernelCall(kernel, start + i, tuple(args_fn(i)))
            for i in range(count)
        ]


def _n(value: float, minimum: int = 1) -> int:
    return max(minimum, int(value))


def _iters(base: int, scale: float) -> int:
    """Phase iteration count: scales down for tests, floor of 2."""
    return _n(base * scale, 2)


def _compress(scale: float) -> WorkloadSpec:
    rep = _Replicator()
    coding = (
        rep.take("rle", 10, lambda i: (120 + 25 * i,))
        + rep.take("crc", 6, lambda i: (20 + 8 * i,))
    )
    integrity = (
        rep.take("crc", 8, lambda i: (25 + 10 * i,))
        + rep.take("rle", 6, lambda i: (60 + 20 * i,))
    )
    return WorkloadSpec(
        name="compress",
        description="RLE coding + CRC over run-heavy binary data",
        phases=(
            PhaseSpec(tuple(coding), iterations=_iters(60, scale)),
            PhaseSpec(tuple(integrity), iterations=_iters(55, scale)),
        ),
        rounds=2,
        input=InputSpec(kind="binary", size=4096, seed=101),
        random_seed=1001,
        fuel=_n(6_000_000 * scale, 300_000),
    )


def _gcc(scale: float) -> WorkloadSpec:
    rep = _Replicator()
    lex = (
        rep.take("fsm", 4, lambda i: (35 + 12 * i,))
        + rep.take("strsearch", 3, lambda i: (25 + 8 * i,))
        + rep.take("rle", 2, lambda i: (50 + 15 * i,))
        + rep.take("crc", 2, lambda i: (15 + 6 * i,))
    )
    parse = (
        rep.take("bintree", 4, lambda i: (8 + 3 * i,))
        + rep.take("hashtab", 3, lambda i: (6 + 3 * i,))
        + rep.take("fsm", 3, lambda i: (25 + 10 * i,))
        + rep.take("strsearch", 2, lambda i: (18 + 8 * i,))
    )
    optimize = (
        rep.take("interp", 4, lambda i: (24, 30 + 12 * i))
        + rep.take("hashtab", 2, lambda i: (5 + 3 * i,))
        + rep.take("bintree", 2, lambda i: (6 + 3 * i,))
        + rep.take("sieve", 2, lambda i: (90 + 40 * i,))
        + rep.take("queens", 2, lambda i: (4 + i,))
    )
    codegen = (
        rep.take("fillrand", 2, lambda i: (14 + 6 * i,))
        + rep.take("qsort", 2, lambda i: (14 + 6 * i,))
        + rep.take("matmul", 2, lambda i: (5 + i,))
        + rep.take("hashtab", 2, lambda i: (5 + 2 * i,))
        + rep.take("interp", 4, lambda i: (24, 22 + 8 * i))
    )
    emit = (
        rep.take("rle", 4, lambda i: (35 + 12 * i,))
        + rep.take("crc", 4, lambda i: (12 + 5 * i,))
        + rep.take("fsm", 3, lambda i: (20 + 8 * i,))
        + rep.take("strsearch", 3, lambda i: (14 + 6 * i,))
    )
    return WorkloadSpec(
        name="gcc",
        description="replicated compiler-pass kernels (largest static "
        "branch population)",
        phases=(
            PhaseSpec(tuple(lex), iterations=_iters(55, scale)),
            PhaseSpec(tuple(parse), iterations=_iters(55, scale)),
            PhaseSpec(tuple(optimize), iterations=_iters(50, scale)),
            PhaseSpec(tuple(codegen), iterations=_iters(50, scale)),
            PhaseSpec(tuple(emit), iterations=_iters(55, scale)),
        ),
        rounds=2,
        input=InputSpec(kind="text", size=4096, seed=202),
        random_seed=2002,
        fuel=_n(9_000_000 * scale, 500_000),
    )


def _ijpeg(scale: float) -> WorkloadSpec:
    rep = _Replicator()
    transform = (
        rep.take("matmul", 8, lambda i: (5 + i,))
        + rep.take("crc", 4, lambda i: (15 + 8 * i,))
    )
    scan = (
        rep.take("life", 4, lambda i: (1,))
        + rep.take("rle", 6, lambda i: (60 + 25 * i,))
    )
    return WorkloadSpec(
        name="ijpeg",
        description="regular numeric kernels: matmul blocks + grid passes",
        phases=(
            PhaseSpec(tuple(transform), iterations=_iters(60, scale)),
            PhaseSpec(tuple(scan), iterations=_iters(40, scale)),
        ),
        rounds=2,
        input=InputSpec(kind="mixed", size=4096, seed=303),
        random_seed=3003,
        fuel=_n(6_000_000 * scale, 300_000),
    )


def _li(scale: float) -> WorkloadSpec:
    rep = _Replicator()
    eval_phase = (
        rep.take("interp", 10, lambda i: (32, 35 + 12 * i))
        + rep.take("bintree", 6, lambda i: (7 + 3 * i,))
        + rep.take("hashtab", 4, lambda i: (5 + 3 * i,))
    )
    gc_phase = (
        rep.take("bintree", 6, lambda i: (10 + 4 * i,))
        + rep.take("strsearch", 4, lambda i: (20 + 10 * i,))
    )
    return WorkloadSpec(
        name="li",
        description="interpreter dispatch + pointer-chasing cons trees",
        phases=(
            PhaseSpec(tuple(eval_phase), iterations=_iters(60, scale)),
            PhaseSpec(tuple(gc_phase), iterations=_iters(50, scale)),
        ),
        rounds=2,
        input=InputSpec(kind="text", size=2048, seed=404),
        random_seed=4004,
        fuel=_n(6_000_000 * scale, 300_000),
    )


def _m88ksim(scale: float) -> WorkloadSpec:
    rep = _Replicator()
    decode = (
        rep.take("fsm", 10, lambda i: (30 + 10 * i,))
        + rep.take("interp", 8, lambda i: (32, 28 + 10 * i))
    )
    commit = (
        rep.take("fillrand", 4, lambda i: (18 + 8 * i,))
        + rep.take("checksum", 4, lambda i: (18 + 8 * i,))
        + rep.take("crc", 4, lambda i: (18 + 8 * i,))
        + rep.take("sieve", 2, lambda i: (140,))
    )
    return WorkloadSpec(
        name="m88ksim",
        description="decode FSM + execute interpreter (simulator loop)",
        phases=(
            PhaseSpec(tuple(decode), iterations=_iters(60, scale)),
            PhaseSpec(tuple(commit), iterations=_iters(50, scale)),
        ),
        rounds=2,
        input=InputSpec(kind="text", size=3072, seed=505),
        random_seed=5005,
        fuel=_n(6_000_000 * scale, 300_000),
    )


def _perl(variant: str, scale: float) -> WorkloadSpec:
    # the two input sets weight the phases differently, like the paper's
    # scrabbl vs. primes inputs
    rep = _Replicator()
    text_phase = (
        rep.take("hashtab", 6, lambda i: (7 + 3 * i,))
        + rep.take("strsearch", 6, lambda i: (25 + 10 * i,))
        + rep.take("fsm", 4, lambda i: (30 + 12 * i,))
    )
    data_phase = (
        rep.take("rle", 6, lambda i: (45 + 15 * i,))
        + rep.take("bintree", 6, lambda i: (6 + 3 * i,))
        + rep.take("hashtab", 4, lambda i: (5 + 2 * i,))
    )
    if variant == "a":
        input_spec = InputSpec(kind="text", size=4096, seed=611)
        text_iters, data_iters = _iters(65, scale), _iters(35, scale)
        random_seed = 6011
    else:
        input_spec = InputSpec(kind="mixed", size=4096, seed=622)
        text_iters, data_iters = _iters(35, scale), _iters(65, scale)
        random_seed = 6022
    return WorkloadSpec(
        name=f"perl_{variant}",
        description="hash tables + string scanning + text transform",
        phases=(
            PhaseSpec(tuple(text_phase), iterations=text_iters),
            PhaseSpec(tuple(data_phase), iterations=data_iters),
        ),
        rounds=2,
        input=input_spec,
        random_seed=random_seed,
        fuel=_n(5_000_000 * scale, 300_000),
    )


def _chess(scale: float) -> WorkloadSpec:
    rep = _Replicator()
    search = (
        rep.take("queens", 10, lambda i: (4 + (i % 3),))
        + rep.take("bintree", 6, lambda i: (6 + 3 * i,))
        + rep.take("hashtab", 4, lambda i: (5 + 3 * i,))
    )
    movegen = (
        rep.take("fillrand", 6, lambda i: (12 + 5 * i,))
        + rep.take("qsort", 6, lambda i: (12 + 5 * i,))
        + rep.take("queens", 6, lambda i: (4 + (i % 2),))
        + rep.take("interp", 4, lambda i: (24, 20 + 10 * i))
    )
    return WorkloadSpec(
        name="chess",
        description="replicated backtracking search + move-list sorting",
        phases=(
            PhaseSpec(tuple(search), iterations=_iters(55, scale)),
            PhaseSpec(tuple(movegen), iterations=_iters(55, scale)),
        ),
        rounds=2,
        input=InputSpec(kind="text", size=1024, seed=707),
        random_seed=7007,
        fuel=_n(7_000_000 * scale, 300_000),
    )


def _gs(scale: float) -> WorkloadSpec:
    rep = _Replicator()
    raster = (
        rep.take("life", 4, lambda i: (1,))
        + rep.take("matmul", 6, lambda i: (5 + i,))
        + rep.take("sieve", 4, lambda i: (80 + 40 * i,))
    )
    interpret = (
        rep.take("fsm", 6, lambda i: (28 + 10 * i,))
        + rep.take("strsearch", 6, lambda i: (18 + 8 * i,))
        + rep.take("rle", 4, lambda i: (40 + 15 * i,))
        + rep.take("interp", 4, lambda i: (28, 22 + 10 * i))
    )
    fill = (
        rep.take("matmul", 4, lambda i: (5 + i,))
        + rep.take("fillrand", 4, lambda i: (12 + 6 * i,))
        + rep.take("qsort", 4, lambda i: (12 + 6 * i,))
        # raster's first transform kernel is shared with this phase
        + [KernelCall("matmul", 0, (5,))]
    )
    return WorkloadSpec(
        name="gs",
        description="rasteriser-like grid evolution + numeric phases",
        phases=(
            PhaseSpec(tuple(raster), iterations=_iters(45, scale)),
            PhaseSpec(tuple(interpret), iterations=_iters(55, scale)),
            PhaseSpec(tuple(fill), iterations=_iters(50, scale)),
        ),
        rounds=2,
        input=InputSpec(kind="mixed", size=4096, seed=808),
        random_seed=8008,
        fuel=_n(7_000_000 * scale, 300_000),
    )


def _pgp(scale: float) -> WorkloadSpec:
    rep = _Replicator()
    crypt = (
        rep.take("crc", 10, lambda i: (15 + 8 * i,))
        + rep.take("rle", 6, lambda i: (45 + 18 * i,))
    )
    keyring = (
        rep.take("hashtab", 4, lambda i: (6 + 3 * i,))
        + rep.take("fillrand", 4, lambda i: (14 + 6 * i,))
        + rep.take("checksum", 4, lambda i: (14 + 6 * i,))
        + rep.take("interp", 2, lambda i: (24, 30))
    )
    return WorkloadSpec(
        name="pgp",
        description="CRC + coding loops over binary data",
        phases=(
            PhaseSpec(tuple(crypt), iterations=_iters(65, scale)),
            PhaseSpec(tuple(keyring), iterations=_iters(50, scale)),
        ),
        rounds=2,
        input=InputSpec(kind="binary", size=4096, seed=909),
        random_seed=9009,
        fuel=_n(5_000_000 * scale, 300_000),
    )


def _plot(scale: float) -> WorkloadSpec:
    rep = _Replicator()
    evaluate = (
        rep.take("sieve", 8, lambda i: (80 + 40 * i,))
        + rep.take("matmul", 6, lambda i: (5 + i,))
    )
    render = (
        rep.take("fillrand", 6, lambda i: (12 + 6 * i,))
        + rep.take("qsort", 6, lambda i: (12 + 6 * i,))
        + rep.take("checksum", 4, lambda i: (12 + 6 * i,))
        + rep.take("crc", 2, lambda i: (25,))
    )
    return WorkloadSpec(
        name="plot",
        description="function evaluation (sieve, matmul) + sorting",
        phases=(
            PhaseSpec(tuple(evaluate), iterations=_iters(55, scale)),
            PhaseSpec(tuple(render), iterations=_iters(55, scale)),
        ),
        rounds=2,
        input=InputSpec(kind="text", size=1024, seed=1010),
        random_seed=10010,
        fuel=_n(5_000_000 * scale, 300_000),
    )


def _python(scale: float) -> WorkloadSpec:
    rep = _Replicator()
    bytecode = (
        rep.take("interp", 10, lambda i: (32, 28 + 10 * i))
        + rep.take("hashtab", 4, lambda i: (6 + 3 * i,))
    )
    objects = (
        rep.take("hashtab", 6, lambda i: (6 + 2 * i,))
        + rep.take("bintree", 6, lambda i: (7 + 3 * i,))
        + rep.take("interp", 6, lambda i: (32, 20 + 8 * i))
    )
    text = (
        rep.take("strsearch", 4, lambda i: (22 + 10 * i,))
        + rep.take("fsm", 4, lambda i: (28 + 12 * i,))
        + rep.take("rle", 4, lambda i: (35 + 15 * i,))
        + rep.take("crc", 2, lambda i: (20,))
    )
    return WorkloadSpec(
        name="python",
        description="many interpreter instances + dict/object kernels",
        phases=(
            PhaseSpec(tuple(bytecode), iterations=_iters(55, scale)),
            PhaseSpec(tuple(objects), iterations=_iters(50, scale)),
            PhaseSpec(tuple(text), iterations=_iters(55, scale)),
        ),
        rounds=2,
        input=InputSpec(kind="text", size=3072, seed=1111),
        random_seed=11011,
        fuel=_n(7_000_000 * scale, 300_000),
    )


def _ss(variant: str, scale: float) -> WorkloadSpec:
    # the paper found ss_a and ss_b exercise visibly different code; the
    # b-variant weights the timing/sort phase instead of the decode phase
    rep = _Replicator()
    decode = (
        rep.take("fsm", 8, lambda i: (28 + 10 * i,))
        + rep.take("interp", 8, lambda i: (36, 26 + 10 * i))
    )
    timing = (
        rep.take("life", 4, lambda i: (1,))
        + rep.take("fillrand", 4, lambda i: (12 + 6 * i,))
        + rep.take("qsort", 4, lambda i: (12 + 6 * i,))
        + rep.take("crc", 4, lambda i: (15 + 8 * i,))
    )
    if variant == "a":
        decode_iters, timing_iters = _iters(65, scale), _iters(30, scale)
        input_spec = InputSpec(kind="text", size=3072, seed=1212)
        random_seed = 12012
    else:
        decode_iters, timing_iters = _iters(30, scale), _iters(60, scale)
        input_spec = InputSpec(kind="binary", size=3072, seed=1222)
        random_seed = 12022
    return WorkloadSpec(
        name=f"ss_{variant}",
        description="processor-simulator loop: decode FSM + interpreter "
        "+ grid",
        phases=(
            PhaseSpec(tuple(decode), iterations=decode_iters),
            PhaseSpec(tuple(timing), iterations=timing_iters),
        ),
        rounds=2,
        input=input_spec,
        random_seed=random_seed,
        fuel=_n(6_000_000 * scale, 300_000),
    )


def _tex(scale: float) -> WorkloadSpec:
    rep = _Replicator()
    scan = (
        rep.take("strsearch", 8, lambda i: (25 + 10 * i,))
        + rep.take("fsm", 8, lambda i: (25 + 10 * i,))
    )
    output = (
        rep.take("rle", 6, lambda i: (40 + 15 * i,))
        + rep.take("crc", 4, lambda i: (18 + 8 * i,))
        + rep.take("hashtab", 4, lambda i: (6 + 3 * i,))
        # the scan-phase tokenizer is reused here, like a shared library
        # routine: its branches belong to BOTH phases' working sets
        + [KernelCall("fsm", 0, (20,))]
    )
    return WorkloadSpec(
        name="tex",
        description="text scanning/tokenisation + output encoding",
        phases=(
            PhaseSpec(tuple(scan), iterations=_iters(60, scale)),
            PhaseSpec(tuple(output), iterations=_iters(50, scale)),
        ),
        rounds=2,
        input=InputSpec(kind="text", size=5120, seed=1313),
        random_seed=13013,
        fuel=_n(6_000_000 * scale, 300_000),
    )


def benchmark_suite(scale: float = 1.0) -> Dict[str, WorkloadSpec]:
    """Build all benchmark analogs at the given *scale*.

    Args:
        scale: iteration multiplier.  1.0 is the full analog (used by the
            benchmark harness); ~0.15 runs the suite in seconds for
            integration tests (with proportionally lower interleave counts
            — tests use scaled-down thresholds).

    Raises:
        ValueError: if scale is not positive.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return {
        "compress": _compress(scale),
        "gcc": _gcc(scale),
        "ijpeg": _ijpeg(scale),
        "li": _li(scale),
        "m88ksim": _m88ksim(scale),
        "perl_a": _perl("a", scale),
        "perl_b": _perl("b", scale),
        "chess": _chess(scale),
        "gs": _gs(scale),
        "pgp": _pgp(scale),
        "plot": _plot(scale),
        "python": _python(scale),
        "ss_a": _ss("a", scale),
        "ss_b": _ss("b", scale),
        "tex": _tex(scale),
    }


def benchmark_names(include_variants: bool = True) -> List[str]:
    """All benchmark names (optionally without the _a/_b variants)."""
    names = list(benchmark_suite(1.0))
    if include_variants:
        return names
    return [n for n in names if not (n.endswith("_a") or n.endswith("_b"))] + [
        "perl",
        "ss",
    ]


def get_benchmark(name: str, scale: float = 1.0) -> WorkloadSpec:
    """Look up one analog by name (aliases ``perl``/``ss`` resolve to _a).

    Raises:
        KeyError: for unknown benchmark names.
    """
    resolved = _ALIASES.get(name, name)
    suite = benchmark_suite(scale)
    if resolved not in suite:
        raise KeyError(
            f"unknown benchmark {name!r}; known: "
            f"{sorted(suite) + sorted(_ALIASES)}"
        )
    return suite[resolved]
