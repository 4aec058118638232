"""Hash-seed determinism: ``repro profile`` must not depend on
``PYTHONHASHSEED``.

Python randomizes string hashing per process, so any analysis that
iterates a bare ``set``/``frozenset`` of variable names (or keys a
worklist on one) produces run-to-run differences in visit order -- and
therefore in work counters, span order, and SSA name numbering.  The
sweep in PR 2 sorted every such iteration point; this test pins the
property end-to-end by running the CLI under different hash seeds in
subprocesses (in-process tests cannot vary the seed: it is fixed at
interpreter startup) and requiring byte-identical JSON after zeroing
wall-clock timings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROGRAM = """\
a := p; b := q;
count := 3;
total := 0;
while (count > 0) {
  if (a > b) { total := total + a; } else { total := total + b; }
  zig := a + b;
  zag := a + b;
  a := zag - zig + a;
  count := count - 1;
}
print total; print zig;
"""


def _scrub(obj):
    if isinstance(obj, dict):
        return {
            key: 0.0 if key in ("wall_ms", "dur_ms", "start_ms") else _scrub(value)
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [_scrub(item) for item in obj]
    return obj


def _profile_json(path: str, subcommand: list[str], seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *subcommand, path],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return _scrub(json.loads(proc.stdout))


@pytest.mark.parametrize("subcommand", [["profile"], ["trace"]], ids=lambda s: s[0])
def test_profile_json_identical_across_hash_seeds(tmp_path, subcommand) -> None:
    path = str(tmp_path / "prog.dfg")
    Path(path).write_text(PROGRAM)
    baseline = _profile_json(path, subcommand, "1")
    for seed in ("2", "42", "12345"):
        assert _profile_json(path, subcommand, seed) == baseline, seed


# A program that fires many rules at once: spans, related spans, data
# payloads and fingerprints all appear in the output, so any ordering
# leak through a bare set/dict would show up as byte drift.
LINT_PROGRAM = """\
x := 1;
x := 2;
y := x;
t := y + 1;
y := y;
zig := x + t;
zag := x + t;
if (0) {
    dead := zig;
}
while (zag > 0) {
  hoist := x * 2;
  zag := zag - 1;
}
print t + y + zig + hoist + boom;
"""


def _lint_bytes(path: str, fmt: str, seed: str) -> bytes:
    """Raw stdout of ``repro lint`` -- no scrubbing: lint payloads carry
    no timing fields, so the bytes themselves must be identical."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", path, "--format", fmt],
        capture_output=True,
        env=env,
        check=False,  # findings exist, so lint exits 1 by design
    )
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stdout
    return proc.stdout


@pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
def test_lint_output_bytes_identical_across_hash_seeds(tmp_path, fmt) -> None:
    path = str(tmp_path / "prog.dfg")
    Path(path).write_text(LINT_PROGRAM)
    baseline = _lint_bytes(path, fmt, "1")
    for seed in ("2", "42", "12345"):
        assert _lint_bytes(path, fmt, seed) == baseline, seed


# -- generators and fuzz mutators ---------------------------------------------
#
# The fuzzer's byte-determinism contract starts at the program
# generators and the mutators: for a fixed seed both must produce
# byte-identical source under every hash seed.  The helper script prints
# pretty-printed sources, so any set-ordering leak in a generator or a
# mutator (site enumeration, variable choice, shuffles) shows up as a
# stdout diff.

_GEN_SCRIPT = """\
import random
from repro.lang.pretty import pretty_program
from repro.workloads.generators import (
    array_program, inline_expansion_program, irreducible_program,
    random_jump_program, random_program,
)
from repro.fuzz.mutators import MUTATORS
from repro.fuzz.harness import probe_envs, trial_context
from repro.cfg.builder import build_cfg

for seed in range(6):
    print(pretty_program(random_program(seed, size=14, num_vars=4)))
    print(pretty_program(irreducible_program(seed)))
    print(pretty_program(random_jump_program(seed)))
    print(pretty_program(array_program(seed)))
    print(pretty_program(inline_expansion_program(seed)))

for seed in range(4):
    base = random_program(seed, size=14, num_vars=4)
    graph = build_cfg(base)
    for name, mutator in MUTATORS.items():
        context = trial_context(base, graph, seed, name, family="random")
        mutation = mutator(base, random.Random(seed), context)
        print(name, mutation.applied, sorted(mutation.detail.items()))
        if mutation.program is not None:
            print(pretty_program(mutation.program))
    print(probe_envs(seed, sorted(graph.variables())))
"""


def _generator_bytes(seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", _GEN_SCRIPT],
        capture_output=True,
        env=env,
        check=True,
    )
    assert proc.stdout
    return proc.stdout


def test_generators_and_mutators_identical_across_hash_seeds() -> None:
    baseline = _generator_bytes("1")
    for seed in ("2", "42", "12345"):
        assert _generator_bytes(seed) == baseline, seed


# -- region summaries and the edit-replay workload ----------------------------
#
# The PR-6 surfaces: region-summary solves of the edit engine (per-edge
# fact masks over its sticky bit universes) and the ``repro.bench/1``
# edit-replay payload must not depend on set iteration order anywhere in
# the SESE update, the system assembly, or the solver.  Timing fields are zeroed;
# everything else -- summary values, work counters, edit counts -- must
# be byte-identical across hash seeds.

_REGION_SCRIPT = """\
import json
from repro.cfg.builder import build_cfg
from repro.perf.batch import resolve_family
from repro.regions.incremental import ANALYSES, RegionDataflow
from repro.regions.replay import build_replay_graph, edit_script, replay_row
from repro.regions.edits import EditSession

for family, args in (("diamond", [24]), ("loopnest", [4]), ("jump", [6])):
    engine = RegionDataflow(build_cfg(resolve_family(family)(*args)))
    for name in ANALYSES:
        print(name, engine.solve_masks(name))

row = replay_row(24, repeat=1)
for key in ("legacy_ms", "fast_ms", "speedup"):
    row[key] = 0.0
print(json.dumps(row, sort_keys=True))

graph = build_replay_graph(24)
print(edit_script(graph))
session = EditSession(graph)
facts = session.solve_all()
print(json.dumps(
    {
        name: {
            str(eid): sorted(map(str, values))
            for eid, values in sorted(result.items())
        }
        for name, result in facts.items()
    },
    sort_keys=True,
))
"""


def _region_bytes(seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", _REGION_SCRIPT],
        capture_output=True,
        env=env,
        check=True,
    )
    assert proc.stdout
    return proc.stdout


def test_region_summaries_and_replay_identical_across_hash_seeds() -> None:
    baseline = _region_bytes("1")
    for seed in ("2", "42", "12345"):
        assert _region_bytes(seed) == baseline, seed


# -- the fuzz sweep end to end ------------------------------------------------


def _fuzz_bytes(tmp_path, hash_seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC
    out = str(tmp_path / f"fuzz_{hash_seed}.json")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "fuzz",
            "--suite", "smoke", "--budget", "18", "--seed", "7",
            "--output", out,
        ],
        capture_output=True,
        env=env,
        check=True,
    )
    return Path(out).read_bytes()


def test_fuzz_payload_bytes_identical_across_hash_seeds(tmp_path) -> None:
    """``repro fuzz --seed N`` is byte-identical across runs and hash
    seeds -- the payload carries no wall-clock fields at all."""
    baseline = _fuzz_bytes(tmp_path, "1")
    assert b'"wall_ms"' not in baseline and b'"dur_ms"' not in baseline
    for seed in ("2", "42"):
        assert _fuzz_bytes(tmp_path, seed) == baseline, seed


# -- the sparse-engine clients ------------------------------------------------
#
# The PR-9 surfaces: def-use chains, interval ranges, taint and NTSCD
# all key worklists on variable *names*, so a single unsorted set
# iteration anywhere in the splitting engine or a client would leak the
# hash seed into fact order, SSA numbering, or work counters.

_SPARSE_SCRIPT = """\
from repro.cfg.builder import build_cfg
from repro.controldep.ntscd import ntscd
from repro.defuse.chains import build_def_use_chains
from repro.sparse.range_analysis import range_analysis
from repro.sparse.taint import taint_analysis
from repro.util.counters import WorkCounter
from repro.workloads.generators import (
    irreducible_program,
    random_jump_program,
    random_program,
)

for builder, args in (
    (random_program, (3, 18, 4)),
    (irreducible_program, (1, 5)),
    (random_jump_program, (2, 7)),
):
    graph = build_cfg(builder(*args))
    counter = WorkCounter()
    chains = build_def_use_chains(graph, counter=counter)
    print([(c.var, c.def_node, c.use_node) for c in chains.chains])
    print(range_analysis(graph, counter=counter).facts())
    print(taint_analysis(graph, counter=counter).facts())
    print(ntscd(graph, counter=counter).facts())
    print(sorted(counter.snapshot().items()))
"""


def _sparse_bytes(seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", _SPARSE_SCRIPT],
        capture_output=True,
        env=env,
        check=True,
    )
    assert proc.stdout
    return proc.stdout


def test_sparse_clients_identical_across_hash_seeds() -> None:
    baseline = _sparse_bytes("1")
    for seed in ("2", "42", "12345"):
        assert _sparse_bytes(seed) == baseline, seed


# -- the serve stack: cache keys, op payloads, loadgen schedule ---------------
#
# The PR-10 surfaces: a content-addressed cache key must hash the same
# bytes in every process (or a daemon restarted under a different hash
# seed would silently miss everything it just stored), every serve op
# payload is canonical JSON whose bytes feed the byte-identity gate, and
# the loadgen schedule is the seeded workload replayed by CI -- drift in
# any of them would make "warm hit equals cold one-shot" unverifiable.

_SERVE_SCRIPT = """\
from repro.serve.cache import cache_key_bytes, source_sha
from repro.serve.loadgen import loadgen_corpus, loadgen_schedule
from repro.serve.ops import run_op
from repro.serve.server import canonical_json

corpus = loadgen_corpus(smoke=True)
for label, source in corpus[:6]:
    sha = source_sha(source)
    print(label, sha)
    for name in ("cfg", "sese", "dfg", "constprop", "op:lint"):
        print(cache_key_bytes(sha, name, "seed-sweep").hex())
    for op in ("analyze", "constprop", "lint"):
        print(canonical_json(run_op(op, source, label=label)).hex())

print(loadgen_schedule(seed=11, requests=64, programs=len(corpus)))
print(loadgen_schedule(seed=99, requests=32, programs=5, hot_set=2))
"""


def _serve_bytes(seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", _SERVE_SCRIPT],
        capture_output=True,
        env=env,
        check=True,
    )
    assert proc.stdout
    return proc.stdout


def test_serve_cache_keys_and_loadgen_identical_across_hash_seeds() -> None:
    baseline = _serve_bytes("1")
    for seed in ("2", "42", "12345"):
        assert _serve_bytes(seed) == baseline, seed
