"""The measurement kit that every ``tools/bench_*.py`` harness uses.

One rule for timing: ``per_call`` runs ``gc.collect()`` before each timed
run and keeps the collector off while it times, as ``timeit`` does, so a
number does not depend on where a collection lands. It reports both the
minimum and the median over the repeats; a harness prints the one its key
names (``*_min`` or ``*_median``). One rule for memory: ``census`` counts
with ``tracemalloc`` the bytes that what it makes keeps alive, and, when
asked, the objects the collector tracks. Those counts depend on the Python
build, not on the host, so a harness takes them once per run.

``main`` parses ``--seed`` and ``--repeats`` and prints one JSON record:
``harness``, ``command``, ``python``, ``nproc``, ``seed``, ``repeats``,
then the harness's own keys. The zptoolkit on PYTHONPATH is the one
measured, so the same command measures two checkouts.
"""

import argparse
import gc
import inspect
import json
import os
import platform
import random
import statistics
import string
import time
import tracemalloc
from ipaddress import IPv4Address
from typing import Callable, NamedTuple

from zptoolkit.wire import DnsName

class Timing(NamedTuple):
    """Seconds per call: the minimum and the median over the repeats."""

    min: float
    median: float


def per_call(run: Callable, repeats: int, calls: int = 1,
             setup: Callable[[int], object] | None = None, parts: bool = False):
    """The seconds per call of ``repeats`` timed runs of ``run``, each of which
    makes ``calls`` calls, as a ``Timing``.

    With ``setup``, each repeat first calls ``setup(repeat)`` untimed and
    passes what it returns to ``run``: a harness that times each repeat on a
    fresh bus builds the bus there. With ``parts``, the run times parts of
    itself and returns their seconds per call by name, and the result is a
    dict of ``Timing`` by name. The collector is off from the first
    ``gc.collect()`` to the last run, and is then put back as it was, also
    when a run raises.
    """
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for repeat in range(repeats):
            args = () if setup is None else (setup(repeat),)
            gc.collect()
            t0 = time.perf_counter()
            out = run(*args)
            elapsed = time.perf_counter() - t0
            samples.append(out if parts else elapsed / calls)
    finally:
        if enabled:
            gc.enable()
    if parts:
        return {name: Timing(min(s[name] for s in samples),
                             statistics.median(s[name] for s in samples)) for name in samples[0]}
    return Timing(min(samples), statistics.median(samples))


def over(call: Callable, inputs: list[tuple], repeats: int, rounds: int = 4) -> Timing:
    """The seconds per ``call(*args)``, over ``rounds`` passes of ``inputs`` per repeat."""
    def run():
        for _ in range(rounds):
            for args in inputs:
                call(*args)

    return per_call(run, repeats, rounds * len(inputs))


def census(make: Callable, items: list, gc_objects: bool = False):
    """The bytes that the values ``make`` builds from ``items`` keep alive, per
    item, rounded to 0.1; with ``gc_objects``, also the objects the collector
    tracks that they keep, per item, rounded to 0.001, as a pair."""
    kept = [None] * len(items)
    if gc_objects:
        gc.collect()
        objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, item in enumerate(items):
            kept[i] = make(item)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    retained = round((after - before) / len(items), 1)
    if not gc_objects:
        return retained
    gc.collect()
    return round((len(gc.get_objects()) - objects) / len(items), 3), retained


# --- seeded inputs that several harnesses draw ---

def label(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_lowercase + string.digits, k=rng.randrange(3, 13)))


def name(rng: random.Random, most: int = 4) -> DnsName:
    """A name of two to ``most`` labels."""
    return DnsName.from_text(".".join(label(rng) for _ in range(rng.randrange(2, most + 1))))


def address(rng: random.Random) -> IPv4Address:
    return IPv4Address(rng.randrange(1 << 24, 224 << 24))


def main(measure: Callable[[int, int], dict], repeats: int, argv: list[str] | None = None) -> None:
    """Run ``measure(seed, repeats)`` of the harness that defines it and print its JSON record."""
    module = inspect.getmodule(measure)
    harness = os.path.splitext(os.path.basename(module.__file__))[0]
    parser = argparse.ArgumentParser(prog=f"{harness}.py", description=module.__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=repeats)
    args = parser.parse_args(argv)
    print(json.dumps({
        "harness": harness,
        "command": f"PYTHONPATH=src python3 tools/{harness}.py --seed {args.seed} "
                   f"--repeats {args.repeats}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "repeats": args.repeats,
        **measure(args.seed, args.repeats),
    }, indent=2))
