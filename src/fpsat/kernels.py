"""Native kernels: `_kernels.c`, compiled once per install, called through ctypes.

`load()` runs once, at `import fpsat`. It opens the library cached in
`fpsat/__pycache__/` under a name keyed by the source and
`KERNEL_CFLAGS`, and compiles it there with `gcc` first if it is
missing (to a temporary file, then an atomic rename, so concurrent
first imports leave one file). The library is then checked
bit for bit against the Python reference paths on fixed inputs. A
missing compiler, an unwritable cache, a load error or a failed check
leaves `lib` None, and every caller takes its Python path; `reason` says
why. Nothing here raises.

`ObjectiveProgram.evaluate` calls `fpsat_eval`. The whole runs of basin
hopping, CRS2 and ISRES are the jobs of a race (`fpsat_race_new`,
`fpsat_race_start`, `fpsat_race_wait`, `fpsat_race_end`): the portfolio
runs each job of a race on a pthread of its own, and a minimizer's
native dispatch runs its one job in the calling thread. The race's
entries are bound through a `ctypes.CDLL` handle, so each releases the
interpreter lock while it runs, and the race's threads never take it.
The jobs' threads block every signal, so Ctrl-C lands in the calling
thread, whose handler runs once `fpsat_race_wait` (a bounded wait)
returns; a stop byte set from any thread reaches every job at its next
evaluation.
`fpsat_eval` is bound through a second, `ctypes.PyDLL` handle on the same
library, so it keeps the lock: it takes about a microsecond, and
releasing the lock that often would only interleave the threads of a
Python race. All five are attributes of `lib`. Tests force the Python
path by setting `lib` to None.
"""

from __future__ import annotations

import ctypes
import os
import struct
import zlib
from array import array
from pathlib import Path

__all__ = ["KERNEL_CFLAGS", "SOURCE", "lib", "reason", "load", "status", "cache_file"]

# gcc flags for the kernels and for `render_objective_source`'s output:
# no contraction of a * b + c into a fused multiply-add, no fast math and
# no -march, so that every operation rounds as the Python path's does
KERNEL_CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")

SOURCE = Path(__file__).with_name("_kernels.c")

lib = None  # the loaded kernels, or None: the Python path
reason: str | None = None  # why `lib` is None after `load()`

_SIGNATURES = {
    "fpsat_eval": (ctypes.c_double, [ctypes.c_char_p, ctypes.c_char_p]),
    # image, jobs, algorithms, start points, generator states, max_evals,
    # lo, hi, stop byte, best, (code, evals), (start, end) times, points
    "fpsat_race_new": (ctypes.c_void_p, [
        ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_void_p,
        ctypes.POINTER(ctypes.c_uint64), ctypes.c_int64, ctypes.c_double, ctypes.c_double,
        ctypes.c_void_p, ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_double), ctypes.c_void_p]),
    "fpsat_race_start": (None, [ctypes.c_void_p, ctypes.c_int, ctypes.c_int]),
    "fpsat_race_wait": (ctypes.c_int, [ctypes.c_void_p, ctypes.c_double]),
    "fpsat_race_end": (ctypes.c_int, [ctypes.c_void_p]),
}


class _Unavailable(Exception):
    """Why the native kernels cannot be used."""


def status() -> dict:
    """Which path evaluates objectives and draws random numbers, and why."""
    return {"path": "python" if lib is None else "native", "reason": reason}


def load(cache_dir=None) -> None:
    """Open (compiling first if needed) and check the kernels; on any
    failure select the Python path and record why. `cache_dir` defaults
    to `fpsat/__pycache__/`."""
    global lib, reason
    lib = None
    try:
        candidate = _open_or_build(cache_file(cache_dir))
        _self_check(candidate)
    except Exception as exc:  # any failure selects the Python path
        reason = str(exc) if isinstance(exc, _Unavailable) else f"{type(exc).__name__}: {exc}"
        return
    lib, reason = candidate, None


def cache_file(cache_dir=None) -> Path:
    """The cached library for this source and these flags."""
    cache = Path(cache_dir) if cache_dir is not None else SOURCE.parent / "__pycache__"
    key = zlib.crc32(SOURCE.read_bytes() + " ".join(KERNEL_CFLAGS).encode())
    return cache / f"_kernels-{key:08x}.so"


def _open_or_build(path: Path):
    if path.exists():
        try:
            if _intact(path):
                return _open(path)
        except OSError:
            pass
        path.unlink(missing_ok=True)  # truncated or foreign: build a fresh one
    _build(path)
    try:
        return _open(path)
    except OSError as exc:
        raise _Unavailable(f"cannot load {path.name}: {exc}") from None


def _intact(path: Path) -> bool:
    """False if an ELF64 library ends before its segments or section
    headers do: the dynamic loader would map the missing pages and fault
    on them, killing the process, instead of failing."""
    data = path.read_bytes()
    if data[:6] != b"\x7fELF\x02\x01":  # not little-endian ELF64: left to the loader
        return True
    if len(data) < 64:
        return False
    phoff, shoff = struct.unpack_from("<QQ", data, 32)
    phentsize, phnum, shentsize, shnum = struct.unpack_from("<HHHH", data, 54)
    if max(phoff + phentsize * phnum, shoff + shentsize * shnum) > len(data):
        return False
    for i in range(phnum):
        offset, size = struct.unpack_from("<8xQ16xQ", data, phoff + i * phentsize)
        if offset + size > len(data):
            return False
    return True


def _open(path: Path):
    handle = ctypes.PyDLL(str(path))
    unlocked = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(handle if name == "fpsat_eval" else unlocked, name)
        fn.restype, fn.argtypes = restype, argtypes
        setattr(handle, name, fn)
    return handle


def _build(path: Path) -> None:
    """Compile the source to `path` through a temporary file in its
    directory and an atomic rename."""
    import shutil  # imported here: a warm start compiles nothing
    import subprocess
    import tempfile

    gcc = shutil.which("gcc")
    if gcc is None:
        raise _Unavailable("no gcc on PATH")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + "-", suffix=".tmp")
    except OSError as exc:
        raise _Unavailable(f"cache directory not writable: {exc}") from None
    os.close(fd)
    try:
        proc = subprocess.run([gcc, *KERNEL_CFLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            raise _Unavailable(f"gcc failed: {last[0]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _self_check(candidate) -> None:
    """Compare the candidate with the Python paths, which `load` has
    selected meanwhile, on fixed inputs: a program with all 13 opcodes
    at special values of both widths, and short whole runs of basin
    hopping, CRS2 and ISRES on that program, which draw uniform and
    Gaussian deviates; each runs as the one job of a race, in this
    thread."""
    from .objective import _kernel_check_program
    from .optimizers import _whole_run
    from .rng import Xoshiro256Plus

    program, X = _kernel_check_program(), _check_points()
    want = array("d", [program.evaluate(x) for x in X])
    got = array("d", [candidate.fpsat_eval(program._image, array("d", x).tobytes())
                      for x in X])
    if got.tobytes() != want.tobytes():
        raise _Unavailable("self-check failed: objective values")

    for alg, row, budget, seed, box, digest in _RUN_CHECKS:
        rng = Xoshiro256Plus(0)
        rng._s[:] = (0, 0, 0, 0) if seed is None else Xoshiro256Plus(seed).state()
        out = _whole_run(alg, program._image, X[row], budget, rng, None, box, lib=candidate)
        if _run_digest(out, rng) != digest:
            raise _Unavailable("self-check failed: whole runs")


# Short whole runs on the check program from rows of `_check_points`:
# (algorithm, row, budget, generator seed, the box of CRS2 and ISRES,
# `_run_digest` of the Python minimizer's run). A Python run of these
# costs a millisecond or more, more than the rest of the check, so the
# digests are pinned here, and tests/test_kernels.py recomputes them
# from the Python minimizers.
# - a descent from an ordinary point;
# - basin hopping from a point with a NaN coordinate, where every line
#   search is rejected and each hop is one evaluation, on the all-zero
#   generator state (seed None), whose draws are all 0.0: a Metropolis
#   test with p = 0 then shows whether it is strict;
# - ISRES through five generations of lambda = 100 after its initial
#   population, by when its best point shows the differential step, the
#   step-size cap and the clip;
# - CRS2 past its initial population of 50. It comes last because its
#   draws index its pool: draws outside [0, 1) must fail a check before.
_RUN_CHECKS = (
    ("bh", 0, 40, 7, (), 0xABE97D8F),
    ("bh", 8, 20, None, (), 0x9F68A2E3),
    ("isres", 0, 600, 7, (-4.0, 4.0), 0x4B7DEBF0),
    ("crs2", 0, 60, 7, (-4.0, 4.0), 0xB566AD25),
)


def _run_digest(outcome, rng) -> int:
    """CRC-32 of a run's outcome and of its generator's final state."""
    best = b"" if outcome.best_x is None else array("d", outcome.best_x).tobytes()
    return zlib.crc32(struct.pack("<qd4Q", outcome.evals_used, outcome.best_value,
                                  *rng.state())
                      + outcome.terminated_by.value.encode() + best)


def _check_points():
    """Special and ordinary values of both widths for the check program's
    (x, y, u, w). At the last point, each binary32 result rounds to the
    constant that the check program compares it with."""
    inf, nan = float("inf"), float("nan")
    return [
        (1.0, 3.0, 1.0, 3.0),
        (0.0, -0.0, -0.0, 0.0),
        (nan, 1.0, inf, -inf),
        (3.4028235e38, 3.5e38, 1.7e308, 1.7e308),
        (-2.5, 0.1, -1e-300, 1e300),
        (1e-45, 5e-324, 5e-324, -5e-324),
        (0.0, 0.0, 0.0, 0.0),
        (inf, -inf, nan, 2.0),
        (1.0000001192092896, 5.0, nan, 5.0),
    ]
