"""Persistent forked worker processes for the portfolio race.

A race that spans several cores runs some of its instances in worker
processes. Workers are forked lazily, by the first race that needs them,
and later races reuse them. A job is a module-level function and its
arguments. The worker calls the function with the pool's stop flag and
sends back its return value. Jobs and results travel as length-prefixed
pickles over pipes; `multiprocessing` is not used, because importing it
costs more than a whole race on easy input. The stop flag is one byte of
anonymous shared memory, so every process of a race polls the same flag.
A worker exits as soon as its job pipe has no writer left, even in the
middle of a job: when the pool is closed at interpreter exit, or when
the parent process dies.
"""

from __future__ import annotations

import atexit
import ctypes
import mmap
import os
import pickle
import select
import signal
import threading
import warnings

# `traceback` is imported where it is used: it costs about a millisecond
# to import, which every start-up would pay for a crash that rarely comes

__all__ = ["WorkerError", "shared_pool"]

_HEADER = 8  # bytes of the little-endian payload length


class StopFlag:
    """`threading.Event`'s `is_set`/`set`/`clear` on one byte of shared
    memory, seen by every process forked after the flag was made. The
    native kernels' whole runs read the byte at `address`."""

    def __init__(self):
        self._byte = mmap.mmap(-1, 1)
        self.address = ctypes.addressof(ctypes.c_char.from_buffer(self._byte))

    def is_set(self) -> bool:
        return self._byte[0] != 0

    def set(self) -> None:
        self._byte[0] = 1

    def clear(self) -> None:
        self._byte[0] = 0


class WorkerError(Exception):
    """A job that returned nothing: the worker died, or it could not take
    the job or send back its result. `traceback` holds the worker's
    traceback text, if it had one."""

    def __init__(self, message: str, traceback: str = ""):
        super().__init__(message)
        self.traceback = traceback


def _send(fd: int, data: bytes) -> None:
    view = memoryview(len(data).to_bytes(_HEADER, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytes | None:
    """n bytes, or None if the pipe ends first."""
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _receive(fd: int) -> bytes | None:
    """One payload, or None at end of file."""
    header = _read_exact(fd, _HEADER)
    if header is None:
        return None
    return _read_exact(fd, int.from_bytes(header, "little"))


def _serve(jobs: int, results: int, stop: StopFlag) -> None:
    """The worker's loop: one job at a time until the job pipe ends."""
    while True:
        data = _receive(jobs)
        if data is None:
            return
        try:
            fn, args = pickle.loads(data)
            reply = (True, fn(*args, stop=stop))
        except Exception as exc:
            import traceback

            reply = (False, (f"{type(exc).__name__}: {exc}", traceback.format_exc()))
        _send(results, pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))


class Worker:
    """A forked worker process and this process's ends of its two pipes."""

    def __init__(self, pid: int, jobs: int, results: int):
        self.pid = pid
        self.jobs = jobs  # write end
        self.results = results  # read end
        self.alive = True

    def fileno(self) -> int:
        """The result pipe, for `select`."""
        return self.results

    def submit(self, fn, *args) -> None:
        """Start `fn(*args, stop=<the pool's flag>)` in the worker."""
        data = pickle.dumps((fn, args), protocol=pickle.HIGHEST_PROTOCOL)
        try:
            _send(self.jobs, data)
        except BrokenPipeError:
            raise WorkerError(self._reap(0)) from None

    def result(self):
        """The submitted job's return value; blocks until it arrives.
        Raises `WorkerError` if the job raised or the worker died."""
        data = _receive(self.results)
        if data is None:
            raise WorkerError(self._reap(0))
        ok, value = pickle.loads(data)
        if not ok:
            raise WorkerError(*value)
        return value

    def poll(self) -> bool:
        """Whether the worker still runs; reaps it if it has ended."""
        if self.alive:
            self._reap(os.WNOHANG)
        return self.alive

    def kill(self) -> None:
        if self.alive:
            os.kill(self.pid, signal.SIGKILL)
            self._reap(0)

    def close(self) -> None:
        """Ends the worker after its current job: its job pipe ends."""
        if self.alive:
            os.close(self.jobs)
            self.jobs = -1
            self._reap(0)

    def _reap(self, flags: int) -> str:
        """Wait for the worker's exit (`flags` 0) or test for it
        (`os.WNOHANG`); once it has exited, close its pipes and say how
        it ended."""
        pid, status = os.waitpid(self.pid, flags)
        if pid == 0:
            return "running"
        self.alive = False
        for fd in (self.jobs, self.results):
            if fd >= 0:
                os.close(fd)
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            try:
                how = f"killed by {signal.Signals(-code).name}"
            except ValueError:
                how = f"killed by signal {-code}"
        else:
            how = f"exited with code {code}"
        return f"worker process {self.pid} {how}"


def _exit_when_orphaned(jobs: int) -> None:
    """Ends the worker once the job pipe has no writer. Polling for no
    events reports only that hang-up, so jobs stay unread."""
    hangup = select.poll()
    hangup.register(jobs, 0)
    hangup.poll()
    os._exit(0)


def _fork(stop: StopFlag, siblings: list[Worker]) -> Worker:
    jobs_r, jobs_w = os.pipe()
    results_r, results_w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads forks. The
            # child touches no lock another thread may hold: only its own
            # pipes, the stop byte, and the objects each job unpickles
            # (the interpreter resets its import lock in a forked child).
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        for fd in (jobs_r, jobs_w, results_r, results_w):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            # hold no write end of any job pipe, so that each worker sees
            # end of file once this process's parent is gone
            for fd in (jobs_w, results_r, *(fd for w in siblings if w.alive
                                             for fd in (w.jobs, w.results))):
                os.close(fd)
            # before the first job, which may be under way when the
            # parent dies
            threading.Thread(target=_exit_when_orphaned, args=(jobs_r,),
                             daemon=True).start()
            _serve(jobs_r, results_w, stop)
            code = 0
        finally:
            os._exit(code)
    os.close(jobs_r)
    os.close(results_w)
    return Worker(pid, jobs_w, results_r)


class Pool:
    """Worker processes, the stop flag they share, and a lock that one
    race at a time holds while it uses them."""

    def __init__(self):
        self.owner = os.getpid()
        self.stop = StopFlag()
        self._workers: list[Worker] = []
        self._lock = threading.Lock()

    def hold(self) -> bool:
        """Take the pool for one race; False if another race holds it."""
        return self._lock.acquire(blocking=False)

    def running(self) -> int:
        """How many workers run, after reaping any that have ended."""
        self._workers = [w for w in self._workers if w.poll()]
        return len(self._workers)

    def workers(self, n: int) -> list[Worker]:
        """Up to n running workers for the race that holds the pool,
        forking any that are missing; fewer if the system refuses a
        fork."""
        while self.running() < n:
            try:
                self._workers.append(_fork(self.stop, self._workers))
            except OSError:
                break
        return self._workers[:n]

    def release(self) -> None:
        self._lock.release()

    def close(self) -> None:
        """Ends every worker and waits for it; in the owner process only,
        since the workers are its children."""
        if os.getpid() != self.owner:
            return
        self.stop.set()
        for w in self._workers:
            w.close()
        self._workers = []


_pool: Pool | None = None
_pool_lock = threading.Lock()


def shared_pool() -> Pool:
    """This process's pool, made at the first call; closed at exit. A
    process forked from the pool's owner gets a pool of its own."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool.owner != os.getpid():
            _pool = Pool()
            atexit.register(_pool.close)
        return _pool
