"""Only ``dftlab.parallel`` forks, reads the CPU affinity or starts a thread.

Every other ``dftlab`` module reaches a second core through
``parallel.on_two_threads`` or ``parallel.on_two_processes``. A call of
``os.fork``, ``os.register_at_fork`` or ``os.sched_getaffinity``, or a
``ThreadPoolExecutor`` or ``threading.Thread`` built anywhere else,
fails here. Only the stdlib ``ast`` module is needed.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dftlab"
HOME = "parallel.py"
OTHERS = sorted(p for p in SRC.glob("*.py") if p.name != HOME)
OWNED = {"os.fork", "os.register_at_fork", "os.sched_getaffinity", "ThreadPoolExecutor",
         "concurrent.futures.ThreadPoolExecutor", "futures.ThreadPoolExecutor",
         "threading.Thread", "Thread", "fork", "register_at_fork", "sched_getaffinity"}


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


def owned_calls(source: str) -> list:
    """The calls in ``source`` of what only ``dftlab.parallel`` may call, by line."""
    calls = sorted((node.lineno, _dotted(node.func)) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call) and _dotted(node.func) in OWNED)
    return [f"{line}: {name}" for line, name in calls]


def test_the_guard_finds_each_owned_call():
    source = ("import os, threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "if hasattr(os, 'fork'):\n    os.fork()\n"
              "os.register_at_fork(after_in_child=print)\nlen(os.sched_getaffinity(0))\n"
              "ThreadPoolExecutor(1)\nthreading.Thread(target=print)\nos.getpid()\n"
              "threading.Lock()\n")
    assert owned_calls(source) == ["4: os.fork", "5: os.register_at_fork",
                                   "6: os.sched_getaffinity", "7: ThreadPoolExecutor",
                                   "8: threading.Thread"]


def test_parallel_makes_each_owned_call():
    calls = {line.split(": ")[1] for line in owned_calls((SRC / HOME).read_text())}
    assert calls == {"os.fork", "os.register_at_fork", "os.sched_getaffinity",
                     "ThreadPoolExecutor"}


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_no_other_module_forks_reads_the_affinity_or_starts_a_thread(path):
    assert owned_calls(path.read_text()) == [], path.name
