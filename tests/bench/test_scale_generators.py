"""Scale-generator validity and the ``gen:`` circuit-spec grammar.

The layered family exists to stage 100k-gate circuits for the flat-core
benchmark, so its contract is structural rather than functional: valid
(acyclic, every output driven), the advertised size, and bit-identical
across processes regardless of hash randomization -- the campaign
runner shards by spec string and re-generates per worker.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.generators import layered_network
from repro.bench.mcnc import (
    CIRCUITS,
    GEN_FAMILIES,
    GEN_PREFIX,
    load_circuit,
    parse_gen_spec,
)
from repro.netlist.validate import check_network

SRC = str(Path(__file__).resolve().parents[2] / "src")

DIGEST_SNIPPET = """
import hashlib, sys
sys.path.insert(0, {src!r})
from repro.bench.mcnc import load_circuit
net = load_circuit({spec!r})
h = hashlib.sha256()
for name in net.topological():
    node = net.nodes[name]
    h.update(repr((name, node.fanins, node.function)).encode())
h.update(repr(list(net.outputs)).encode())
print(h.hexdigest())
"""


def structure(net):
    return [
        (name, net.nodes[name].fanins, net.nodes[name].function)
        for name in net.topological()
    ]


class TestLayeredNetwork:
    def test_valid_at_10k_gates(self):
        net = layered_network(width=100, depth=100, seed=12)
        check_network(net)
        gates = sum(1 for n in net.nodes.values() if not n.is_input)
        assert gates == 100 * 100 + 100  # logic plus one buffer per output
        assert len(net.outputs) == 100

    def test_structure_knobs(self):
        net = layered_network(
            width=8,
            depth=3,
            fanout=3.0,
            reconvergence=0.5,
            seed=2,
            n_outputs=4,
        )
        check_network(net)
        assert len(net.outputs) == 4
        arities = {
            len(net.nodes[g].fanins)
            for g in net.gates()
            if g.startswith("g")  # skip the output buffers
        }
        assert arities == {3}  # fanout=3.0 forces every logic gate ternary

    def test_width_one_degenerate_builds(self):
        # Every candidate fanin is the same node; the bounded redraw
        # loop must give up and accept a duplicate instead of spinning.
        net = layered_network(width=1, depth=4, fanout=3.0, seed=0)
        check_network(net)

    def test_same_seed_same_structure(self):
        a = layered_network(width=20, depth=10, seed=9)
        b = layered_network(width=20, depth=10, seed=9)
        assert structure(a) == structure(b)
        c = layered_network(width=20, depth=10, seed=10)
        assert c.nodes.keys() == a.nodes.keys()  # names ignore the seed
        assert structure(c) != structure(a)  # wiring does not

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            layered_network(width=0)
        with pytest.raises(ValueError):
            layered_network(depth=0)
        with pytest.raises(ValueError):
            layered_network(width=4, n_outputs=5)
        with pytest.raises(ValueError):
            layered_network(width=4, n_outputs=0)

    def test_deterministic_across_processes(self):
        spec = "gen:layered:width=30:depth=12:reconv=0.3:seed=4"
        digests = []
        for hashseed in ("0", "12345"):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    DIGEST_SNIPPET.format(src=SRC, spec=spec),
                ],
                env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"},
                capture_output=True,
                text=True,
                check=True,
            )
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]


class TestGenSpecGrammar:
    def test_parse_layered_with_aliases(self):
        spec = "gen:layered:width=40:depth=6:reconv=0.2:outputs=8:seed=3"
        parsed = parse_gen_spec(spec)
        assert parsed.name == spec  # the spec string IS the circuit name
        assert parsed.family == "generated:layered"
        assert parsed.kwargs == {
            "width": 40,
            "depth": 6,
            "reconvergence": 0.2,
            "n_outputs": 8,
            "seed": 3,
        }

    def test_int_before_float(self):
        parsed = parse_gen_spec("gen:layered:fanout=2.5:width=7")
        assert parsed.kwargs["fanout"] == 2.5
        assert isinstance(parsed.kwargs["width"], int)

    def test_defaults_allowed(self):
        net = load_circuit("gen:layered")
        check_network(net)
        assert net.name == "gen:layered"

    @pytest.mark.parametrize(
        "spec,fragment",
        [
            ("gen:", "family"),
            ("gen:nosuch:width=3", "unknown generator family"),
            ("gen:layered:width", "expected key=value"),
            ("gen:layered:bogus=3", "unknown parameter"),
            ("gen:layered:width=3:width=4", "duplicate"),
            ("gen:layered:width=abc", "numeric"),
        ],
    )
    def test_rejects_malformed(self, spec, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_gen_spec(spec)

    def test_every_family_generates_valid(self):
        # pla has no defaults; everything else generates bare.
        overrides = {"pla": "inputs=6:outputs=3:products=8:seed=1"}
        for family in GEN_FAMILIES:
            spec = f"{GEN_PREFIX}{family}"
            if family in overrides:
                spec = f"{spec}:{overrides[family]}"
            net = load_circuit(spec)
            check_network(net)

    def test_load_circuit_unknown_mentions_gen(self):
        with pytest.raises(KeyError, match="gen"):
            load_circuit("nosuchbench")
        assert "nosuchbench" not in CIRCUITS


class TestCliSelection:
    def _args(self, circuits):
        class Args:
            subset = False

        args = Args()
        args.circuits = circuits
        return args

    def test_accepts_gen_specs(self):
        from repro.__main__ import _select_circuits

        spec = "gen:layered:width=10:depth=4"
        assert _select_circuits(self._args(f"alu2,{spec}")) == ["alu2", spec]

    def test_rejects_bad_gen_spec(self):
        from repro.__main__ import _select_circuits

        with pytest.raises(SystemExit, match="bad generator spec"):
            _select_circuits(self._args("gen:layered:bogus=1"))

    def test_rejects_unknown_plain_name(self):
        from repro.__main__ import _select_circuits

        with pytest.raises(SystemExit, match="unknown circuit"):
            _select_circuits(self._args("gen_layered"))


def test_bench_scale_quick_smoke(tmp_path):
    """The scale benchmark runs end-to-end (its equivalence asserts are
    part of the run) and emits a well-formed report."""
    out = tmp_path / "report.json"
    root = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [
            sys.executable,
            str(root / "benchmarks" / "bench_scale.py"),
            "--quick",
            "--out",
            str(out),
        ],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    entry = report["sizes"]["1k"]
    assert entry["gates"] == 50 * 20 + 50
    assert entry["builds"]["numpy"]["speedup"] > 0
