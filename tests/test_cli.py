"""Command line drivers: payload shapes, formats, and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import prod

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import clusterkit.cli as cl
import clusterkit.grassmann as gx
import clusterkit.lattice as la
import clusterkit.laurent as lp
import clusterkit.quasihom as qh
import clusterkit.seeds as sd
import clusterkit.surfaces as sf

CTX25 = gx.make_context(2, 5)

# rows of a concrete integer matrix; all seven fixture minors are nonzero
PROBE_ROWS = [
    [1, 2, 4, 8, 16],
    [1, 3, 9, 27, 81],
    [1, 5, 25, 125, 625],
]


class Result:
    """One in-process command run: its exit status, what it wrote, and the
    exception it raised (a nonzero SystemExit counts, exit 0 does not)."""

    def __init__(self, exit_code, stdout, stderr, exception):
        self.exit_code, self.stdout, self.stderr = exit_code, stdout, stderr
        self.exception = exception

    @property
    def output(self):
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self):
        return self.stdout.encode("utf-8")


class Runner:
    """Runs a command line in this process with stdout and stderr captured,
    through `main.main` as the benchmark runner calls it.  Any exception the
    command raises is recorded, not propagated, so a test can assert that no
    traceback escaped."""

    def invoke(self, main, argv):
        out, err = io.StringIO(), io.StringIO()
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main.main(args=argv, prog_name="clusterkit", standalone_mode=True)
            except SystemExit as exc:
                exit_code = 0 if exc.code is None else exc.code
                if exit_code != 0:
                    exception = exc
            except Exception as exc:
                exit_code, exception = 1, exc
        return Result(exit_code, out.getvalue(), err.getvalue(), exception)


@pytest.fixture
def runner():
    return Runner()


def test_runner_records_what_the_command_raised(runner, monkeypatch):
    # the no-traceback assertions read `exception`, so it must see a crash
    def crash(fx):
        raise RuntimeError("boom")

    monkeypatch.setattr(sf, "check_suites", crash)
    result = runner.invoke(cl.main, ["surface"])
    assert (result.exit_code, type(result.exception)) == (1, RuntimeError)
    result = runner.invoke(cl.main, ["grassmann", "--kn", "2"])
    assert (result.exit_code, type(result.exception)) == (2, SystemExit)
    assert "usage: clusterkit" in result.output


@pytest.fixture
def gr25(tmp_path):
    fx = gx.build_fixture(CTX25)
    paths = {}
    for name, obj in [
        ("seed", sd.seed_to_json(fx.gr_seed)),
        ("band", sd.seed_to_json(fx.band_seed)),
        ("map", qh.map_to_json(fx.fstar_map)),
        ("wmap", qh.map_to_json(fx.gstar_map)),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return fx, paths


def write_seed(tmp_path, name, seed):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(sd.seed_to_json(seed)))
    return str(path)


def evaluated(f, vals):
    """The Laurent polynomial f at exact rational values."""
    return sum(c * prod(Fraction(v) ** k for v, k in zip(vals, e)) for e, c in f.items())


def probe_minor(cols):
    entries = [PROBE_ROWS[r][c] for r in range(3) for c in range(5)]
    return evaluated(gx.plucker(CTX25, cols), entries)


def probe_values(fx):
    return [probe_minor(cols) for cols in fx.gr_sets]


def test_mutate_reports_each_exchange(runner, gr25):
    fx, paths = gr25
    result = runner.invoke(cl.main, ["mutate", paths["seed"], "--word", "1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["word"] == [1]
    assert [s["removed"] for s in payload["steps"]] == ["D245"]
    seed = sd.seed_from_json(payload["seed"])
    # the exchanged entry evaluates to the minor on columns 1, 3, 5
    got = evaluated(seed.cluster[1], probe_values(fx))
    assert got == probe_minor((1, 3, 5))


def test_mutate_empty_word_echoes_input(runner, gr25):
    _, paths = gr25
    result = runner.invoke(cl.main, ["mutate", paths["seed"]])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["steps"] == []
    assert payload["seed"] == json.loads(open(paths["seed"]).read())


def test_mutate_involution_restores_seed(runner, gr25):
    _, paths = gr25
    result = runner.invoke(cl.main, ["mutate", paths["seed"], "--word", "0,0"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload["steps"]) == 2
    assert payload["seed"] == json.loads(open(paths["seed"]).read())


def test_mutate_out_writes_reloadable_seed(runner, gr25, tmp_path):
    _, paths = gr25
    out = str(tmp_path / "result.json")
    result = runner.invoke(
        cl.main, ["mutate", paths["seed"], "--word", "0", "--out", out]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["written"] == out
    assert "seed" not in payload
    written = json.loads(open(out).read())
    reloaded = sd.seed_from_json(written)
    assert sd.seed_to_json(reloaded) == written


def test_mutate_text_format(runner, gr25):
    _, paths = gr25
    result = runner.invoke(
        cl.main, ["mutate", paths["seed"], "--word", "1", "--format", "text"]
    )
    assert result.exit_code == 0
    assert result.output.startswith("step 0: mu_1 exchanged D245 for ")


def test_mutate_rejects_bad_words(runner, gr25):
    _, paths = gr25
    assert runner.invoke(cl.main, ["mutate", paths["seed"], "--word", "7"]).exit_code == 2
    assert runner.invoke(cl.main, ["mutate", paths["seed"], "--word", "a"]).exit_code == 2


@pytest.mark.parametrize("word", ["1_0", "\u0661", "+1"],
                         ids=["underscore", "arabic-indic", "plus"])
def test_mutate_reads_labels_as_plain_decimals(runner, gr25, word):
    # int() would read these as labels 10, 1 and 1; a label is a plain
    # decimal by the rule of the coefficient strings in a seed file
    _, paths = gr25
    result = runner.invoke(cl.main, ["mutate", paths["seed"], "--word", f" {word} "])
    assert result.exit_code == 2
    assert error_payload(result) == {"error": "invalid word", "piece": word}


def test_mutate_rejects_missing_file(runner, tmp_path):
    result = runner.invoke(cl.main, ["mutate", str(tmp_path / "none.json")])
    assert result.exit_code == 2
    assert "unreadable file" in result.output


def test_mutate_rejects_invalid_seed(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2}')
    result = runner.invoke(cl.main, ["mutate", str(path)])
    assert result.exit_code == 2
    assert "invalid seed" in result.output


def test_mutate_surfaces_failed_division_step(runner, gr25, tmp_path):
    fx, _ = gr25
    seed = fx.gr_seed
    cluster = list(seed.cluster)
    # a binomial entry breaks exact division at the second step
    cluster[0] = lp.add(lp.variable(0, 7), lp.variable(2, 7))
    path = write_seed(tmp_path, "bad", sd.Seed(seed.btilde, cluster, seed.var_names))
    result = runner.invoke(cl.main, ["mutate", path, "--word", "1,0"])
    assert result.exit_code == 2
    payload = json.loads(result.output.split("Error: ", 1)[1])
    assert payload["error"] == "mutation failed"
    assert payload["step"] == 1
    assert payload["label"] == 0


def test_explore_pentagon(runner, gr25):
    _, paths = gr25
    result = runner.invoke(cl.main, ["explore", paths["seed"]])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload["nodes"]) == 5
    assert payload["complete"] is True
    assert payload["nodes"][0]["word"] == []
    # pentagon: every vertex has degree two
    degree = [0] * 5
    for edge in payload["edges"]:
        degree[edge["from"]] += 1
    assert degree == [2] * 5


def test_explore_respects_node_cap(runner, gr25):
    _, paths = gr25
    result = runner.invoke(cl.main, ["explore", paths["seed"], "--max-nodes", "2"])
    payload = json.loads(result.output)
    assert len(payload["nodes"]) == 2
    assert payload["complete"] is False
    assert payload["hit_nodes"] is True


def test_explore_dot_output(runner, gr25):
    _, paths = gr25
    result = runner.invoke(cl.main, ["explore", paths["seed"], "--format", "dot"])
    assert result.exit_code == 0
    assert result.output.startswith("graph exchange {")
    assert result.output.count(" -- ") == 5


def test_explore_text_output(runner, gr25, monkeypatch):
    # the three counts are read off the graph: no cluster variable is rendered
    def render(*args):
        raise AssertionError("explore --format text rendered a cluster variable")

    monkeypatch.setattr(lp, "to_str", render)
    _, paths = gr25
    result = runner.invoke(cl.main, ["explore", paths["seed"], "--format", "text"])
    assert result.exit_code == 0
    assert result.stdout_bytes == b"nodes: 5\nedges: 10\ncomplete: True\n"


X1, X2 = lp.variable(0, 2), lp.variable(1, 2)


def a2_path(tmp_path, cluster):
    return write_seed(tmp_path, "a2", sd.Seed([[0, 1], [-1, 0]], cluster, ["x1", "x2"]))


def error_payload(result):
    return json.loads(result.output.split("Error: ", 1)[1])


def _a_n(n):
    return [[(j == i + 1) - (i == j + 1) for j in range(n)] for i in range(n)]


def _d5():
    b = [row + [0] for row in _a_n(4)] + [[0] * 5]
    b[2][4], b[4][2] = 1, -1
    return b


GOLDEN_SEEDS = {
    "a4-frozen2": lambda: sd.initial_seed(
        _a_n(4) + [[1, 0, -1, 0], [0, 1, 1, -1]], ["x0", "x1", "x2", "x3", "y0", "y1"]),
    "d5": lambda: sd.initial_seed(_d5(), [f"x{i}" for i in range(5)]),
    "gr36": lambda: gx.build_fixture(gx.make_context(3, 6)).gr_seed,
}

# sha256 of `explore` stdout at the default limits, recorded from the
# implementation that kept one polynomial dict per node and sorted term
# tuples for its canonical form
GOLDEN_EXPLORE = {
    ("a4-frozen2", "json"): "ddbc8689d4f6185cd58acc8e35de37f54873071839c50253b6aa8682190ed6a3",
    ("a4-frozen2", "dot"): "5cfd11cffcaaf4945bc818eb0ade042b0bc6e5c6f3b21558a7e1e1fa93597cfd",
    ("a4-frozen2", "text"): "fce12719128da8c8323240df90b9a0ebb47718a5a7ce5ad47b2176f817024ba7",
    ("d5", "json"): "7cd51ceb8b0aa155dbe35610fd162748e0dd5cff215f290aec454ac7acbb1148",
    ("d5", "dot"): "1fadd2e964d10b28efb1e705a12ed40226ae6b44f0e233c0cf966c6f0b021cd8",
    ("d5", "text"): "4a9bc59e147c10ad11826a488926ee5778f2b6f2db5ddcc319d2b28d05d6a3a9",
    ("gr36", "json"): "9b2316c6b780d0cff2c3ab8a140fc11e8e2ff13d99b3e039c769c5a027325295",
    ("gr36", "dot"): "49a635dbb51b0a332e760c561931f3e2ba8648728365135c3dc3dab8e11c97cf",
    ("gr36", "text"): "5d96e013493d40ce411542649c7cc5831d5e611548672c1d3bce5f0d81e18627",
}


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN_EXPLORE))
def test_explore_stdout_matches_golden_digest(runner, tmp_path, name, fmt):
    # byte-identical stdout is the contract of every change to exploration
    path = write_seed(tmp_path, name, GOLDEN_SEEDS[name]())
    result = runner.invoke(cl.main, ["explore", path, "--format", fmt])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == GOLDEN_EXPLORE[name, fmt]


# sha256 of `explore` stdout for the Gr(3,7) rectangle seed (type E6, 833
# seeds) with --max-depth 100 --max-nodes 30000, recorded from the
# implementation that built the whole payload and then its whole text
GOLDEN_E6 = {
    "json": "428744f46e112f9337d2ae2f049d05df76c604f90452ee889d68efca0ae5ab04",
    "dot": "a4138f6d62f6edb240e4ce88797b411550d45dad796fd8f365a24a3e99b5bfc0",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_E6))
def test_explore_e6_stdout_matches_golden_digest(runner, tmp_path, fmt):
    path = write_seed(tmp_path, "gr37", gx.build_fixture(gx.make_context(3, 7)).gr_seed)
    argv = ["explore", path, "--max-depth", "100", "--max-nodes", "30000", "--format", fmt]
    result = runner.invoke(cl.main, argv)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == GOLDEN_E6[fmt]


# sha256 of the fixture reports' stdout, recorded from the implementation
# whose command line module ran the check suites itself
GOLDEN_FIXTURES = {
    ("surface", "json"):
        "b24d2eb5eca46de8cd894f9d81a31dd418e6423d44de36350713615e05f239b5",
    ("surface", "text"):
        "21354f9311eb31d3bd809bf96a6b033eb87485d52a74bb51f3c089dbc4c70676",
    ("grassmann --kn 2 5 --all-checks", "json"):
        "2f88132d6226c0a6204bafbb3c864d00112e6ea15cc18bd5fc716abae96eb2c8",
    ("grassmann --kn 2 5 --all-checks", "text"):
        "c2ce191975ee0b64e163578c535853f737855fe4af9d46a1ac654958a23bab9d",
    ("grassmann --kn 2 6 --all-checks", "json"):
        "6807d27d3366f5bae7905f7a6f86bed0190dcf042376017e0ced23c77022593d",
    ("grassmann --kn 3 6 --all-checks", "json"):
        "9679896976107549ee7f33ae4c22fc562d3eef1ae921dc671a8e4796aafa69b4",
    ("grassmann --kn 3 7 --all-checks", "json"):
        "d812ac1a0b87300c4269239a41ea9fd8979a539b10711336d76f5656f4882da8",
    ("grassmann --kn 2 12", "json"):
        "81e11446018075a23f2ef9c379d508897f2a581cb227f8d6dad318782b359555",
    ("grassmann --kn 3 8", "json"):
        "fa9c4811410f5520688f04ecff2f40a9ebe6c40c1392247c4084a8b4a91ed909",
    ("grassmann --kn 4 8 --all-checks", "json"):
        "7175d3eedcaf4f845fb995df70e565cea64a8fc1094cd24d96692314914d4918",
    # recorded from the implementation that expanded every g_star minor
    ("grassmann --kn 4 10 --all-checks", "json"):
        "adcd92cb0fde39a9662e6743737e06e9550fc53871dcdbf585e700f0f415a3fe",
    ("grassmann --kn 3 11 --all-checks", "json"):
        "8da85f3638e0198646af48a01d315ba9f2bbb2dc8c44c53186e5bcda9a0151dc",
    # recorded from the implementation whose Plücker identities summed their
    # products outside laurent
    ("grassmann --kn 5 11 --all-checks", "json"):
        "fe07f81def3d26a7b51015b1d0052b647140f0c717baae200f725a558e8920c9",
    ("grassmann --kn 4 12 --all-checks", "json"):
        "f81d5b8a2b750aabedbbe5f92d6a162874883c3c0c9f36f1e5fd075f7c5be32c",
    # recorded from the implementation that expanded every band image and
    # divided the frozen generators out of it
    ("grassmann --kn 2 20", "json"):
        "63adffeba7436396d1215f726f5bff2167e47d78536459562b982914ebc379e3",
    ("grassmann --kn 2 24", "json"):
        "37a1cae9b57395b9789efc41037669ea62a0b9fb61d68805c52cc5b31b18d4c9",
    # the base reports the benchmark runs, recorded from the implementation
    # that expanded every chart minor as a full determinant and decided the
    # pinned (2,5) minor relations on the generic matrix
    ("grassmann --kn 2 5", "json"):
        "8d785d2ff5f5ec220a4943c6c28ae94fcb56320ce3b808e4fa3c3579e3aae024",
    ("grassmann --kn 2 6", "json"):
        "dd584231a85218bf8632814acf673369c8eff8925f19d5e1266b884a68c2eae9",
    ("grassmann --kn 3 6", "json"):
        "0275bbf168860e9ab3ca220d7b7aea27b552dcc48caa486cdbd4f4911af8e00b",
    # the text base reports, recorded from the implementation that built the
    # whole JSON payload before it printed their two lines
    ("grassmann --kn 2 5", "text"):
        "68867e019194bad4bf9da24962bf59debf7e4e4537e2ca99da8a1d411f77044a",
    ("grassmann --kn 2 12", "text"):
        "e785a113a0f9d65af1948afeebbb169d7609499db77223c39c704a83d625945e",
    ("grassmann --kn 3 8", "text"):
        "e59169cb35e277295ab4e0288bf0c730145e75989b94a8634fef683ce9a497cf",
}


@pytest.mark.parametrize("argv, fmt", sorted(GOLDEN_FIXTURES))
def test_fixture_stdout_matches_golden_digest(runner, argv, fmt):
    # passing fixture reports keep byte-identical stdout
    result = runner.invoke(cl.main, argv.split() + ["--format", fmt])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == GOLDEN_FIXTURES[argv, fmt]


# sha256 of `mutate --word 1,2,1,0,2,0,1,0` on the Markov quiver, without
# and with the frozen row (1, -1, 0): stdout, and the --out file; recorded
# from the implementation that divided with Johnson's quotient heap and
# wrote each seed through seeds.seed_to_json
GOLDEN_MUTATE = {
    ("markov", "stdout"): "f35031964b32b4ad8c75f91415c6c213344bdbced05bff393ac36d33e47e5082",
    ("markov", "out"): "8fe42bb40fdbea95cad31f99e8c2f61d2c5bb8b636e29ede0048364447796385",
    ("markov_frozen", "stdout"):
        "523934184af098662b5825e101f42abe74e0de156ecdcc21ad3483b81e6480a7",
    ("markov_frozen", "out"): "d0981d364ffac8816d16707c97b13339af666791f05998d086152b5d54cdc510",
}


@pytest.mark.parametrize("name", ["markov", "markov_frozen"])
def test_mutate_output_matches_golden_digest(runner, tmp_path, name):
    btilde = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]] + [[1, -1, 0]] * (name == "markov_frozen")
    path = write_seed(tmp_path, name, sd.initial_seed(btilde, ["x0", "x1", "x2", "y0"][:len(btilde)]))
    argv = ["mutate", path, "--word", "1,2,1,0,2,0,1,0"]
    result = runner.invoke(cl.main, argv)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == GOLDEN_MUTATE[name, "stdout"]
    out = tmp_path / "out.json"
    assert runner.invoke(cl.main, argv + ["--out", str(out)]).exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_MUTATE[name, "out"]


# sha256 of the `--format text` stdout of the three commands whose text
# writers no other test runs, with its exit code, on the Gr(2,5) fixture
# files, the annulus seed before and after its half turn, and a frozen row
# (1, 1) that only a rational combination of the rows of "even" reaches;
# recorded from the implementation whose explore copied every matrix row
GOLDEN_TEXT = {
    ("construct-qh", "seed", "band"):
        (0, "151e5b274597b522364fefd337000fcbb0bb9396dcd26f8e41756b58e0402896"),
    ("construct-qh", "seed", "annulus"):
        (1, "5ae4c7780d9d0c29447f25361bccfc18ca053736aa41039da58a67272523f070"),
    ("construct-qh", "even", "half"):
        (1, "6290f961ad7013c389abc0f62a6aec63ca492d573284fdb01c22202f3287ef71"),
    ("gradings", "seed"):
        (0, "e2313911e6ac69944cec1f1ffd178f7f21d524c7e3bb64c602edd4973c77bcd9"),
    ("gradings", "band"):
        (0, "05061eb154bba53ed8a28962a524394ccc1ec3586151761f7c842c9ff7d42b39"),
    ("orbit-eq", "seed", "seed"):
        (0, "9f15b5db40b4ef60dce55efd1c35081676273c33557480fd31110f527cefe287"),
    ("orbit-eq", "annulus", "moved"):
        (1, "cc240a8b065bb8068d72f0ea0aea60fa55f63b35822b624a6e69b466e1856ded"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_TEXT), ids=" ".join)
def test_text_writers_match_golden_digest(runner, gr25, tmp_path, argv):
    _, paths = gr25
    fx = sf.annulus_fixture()
    paths["annulus"] = write_seed(tmp_path, "annulus", fx.seed)
    paths["moved"] = write_seed(tmp_path, "moved", sd.mutate_word(fx.seed, fx.half_turn_word))
    for name, frozen in [("even", [0, 0]), ("half", [1, 1])]:
        seed = sd.initial_seed([[0, 2], [-2, 0], frozen], ["a", "b", "c"])
        paths[name] = write_seed(tmp_path, name, seed)
    result = runner.invoke(cl.main, [argv[0], *(paths[a] for a in argv[1:]), "--format", "text"])
    digest = hashlib.sha256(result.stdout_bytes).hexdigest()
    assert (result.exit_code, digest) == GOLDEN_TEXT[argv]


# sha256 of what a command wrote, stdout then stderr, with its exit code,
# on the paths that no other test runs through `cli.main`: the text of
# mutate with an empty word and with --out, the text of verify-qh
# --inverse, an inverse map that does not chain, and a map into the
# opposite of the target's pattern with and without --opposite (the one
# command-line path to seeds.opposite_seed); recorded from the
# implementation that still had laurent.exact_div; and the exit-2 stderr of
# the text base report on unsupported dimensions, recorded from the
# implementation that built the whole JSON payload before it printed
GOLDEN_PATHS = {
    ("grassmann", "--kn", "1", "5", "--format", "text"):
        (2, "6396860fb77b3a35cd97e6039f5d093264afc673e00d6649d53a12cf5ba9ba71"),
    ("mutate", "seed", "--word", "", "--format", "text"):
        (0, "708790a3d59108801f4d17c82be6a53e4ae29b07b4f8dacde3767ec4a461b353"),
    ("mutate", "seed", "--word", "1,0", "--out", "out.json", "--format", "text"):
        (0, "9733a75b3bfe911d40441424e7409a6309fb8cd42e2f7d752cb37cab7b507186"),
    ("verify-qh", "map", "seed", "band", "--inverse", "wmap", "--format", "text"):
        (0, "d8c4adfc0bb9d5b0f352c5ac68396414a7b1c6adf303bcca011c1b85026286bf"),
    ("verify-qh", "map", "seed", "band", "--inverse", "unchained"):
        (2, "967b8c6c8ef65e538d4aa8ae6ddefd3bbce85554715c77c2292e8b81e3acfa4b"),
    ("verify-qh", "map", "seed", "opposite", "--opposite"):
        (0, "2f2c785ecf3df13232ea3f9dbac7f625e9e8740c008ed865583cc5e4fa274b30"),
    ("verify-qh", "map", "seed", "opposite", "--no-opposite"):
        (1, "e99850c0000e3dd58adbc1020ab882aa9180dfcea84265715a3beb8e918c7f4c"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_PATHS), ids=" ".join)
def test_other_paths_match_golden_digest(runner, gr25, tmp_path, monkeypatch, argv):
    fx, paths = gr25
    monkeypatch.chdir(tmp_path)
    paths["opposite"] = write_seed(tmp_path, "opposite", sd.opposite_seed(fx.band_seed))
    # the inverse map renames a source variable, so it reads no variable
    # that the forward map writes
    unchained = qh.map_to_json(fx.gstar_map)
    unchained["src_vars"][0] = "Z"
    paths["unchained"] = str(tmp_path / "unchained.json")
    (tmp_path / "unchained.json").write_text(json.dumps(unchained))
    result = runner.invoke(cl.main, [paths.get(a, a) for a in argv])
    digest = hashlib.sha256((result.stdout + result.stderr).encode("utf-8")).hexdigest()
    assert (result.exit_code, digest) == GOLDEN_PATHS[argv]


def test_explore_rejects_failed_division(runner, tmp_path):
    result = runner.invoke(cl.main, ["explore", a2_path(tmp_path, [lp.add(lp.mul(X1, X1), X1), X2])])
    assert result.exit_code == 2
    assert error_payload(result)["error"] == "not a seed of any pattern"


def test_explore_rejects_equal_cluster_entries(runner, tmp_path):
    result = runner.invoke(cl.main, ["explore", a2_path(tmp_path, [X1, X1])])
    assert result.exit_code == 2
    assert "equal" in error_payload(result)["reason"]


def test_mutate_rejects_vanishing_cluster_variable(runner, tmp_path):
    path = a2_path(tmp_path, [X1, lp.constant(-1, 2)])
    result = runner.invoke(cl.main, ["mutate", path, "--word", "0"])
    assert result.exit_code == 2
    payload = error_payload(result)
    assert payload["error"] == "mutation failed"
    assert (payload["step"], payload["label"]) == (0, 0)
    assert payload["reason"] == "zero cluster variable"


def test_verify_qh_rejects_rank_mismatch(runner, tmp_path):
    src = write_seed(tmp_path, "a1", sd.initial_seed([[0]], ["x1"]))
    dst = write_seed(tmp_path, "a2", sd.initial_seed([[0, 1], [-1, 0]], ["y1", "y2"]))
    path = tmp_path / "m.json"
    m = qh.MonomialMap([[1], [0]], ["x1"], ["y1", "y2"], 1, 2)
    path.write_text(json.dumps(qh.map_to_json(m)))
    result = runner.invoke(cl.main, ["verify-qh", str(path), src, dst])
    assert result.exit_code == 2
    assert error_payload(result) == {"error": "principal ranks differ", "src": 1, "dst": 2}


def test_verify_qh_inverse_rejects_non_pattern_seed(runner, tmp_path):
    # the quasi-inverse star mutates the source, and x1^2 + x1 does not
    # divide x2 + y1, the exchange polynomial in direction 0
    x1, x2 = lp.variable(0, 3), lp.variable(1, 3)
    cluster = [lp.add(lp.mul(x1, x1), x1), x2]
    bad = sd.Seed([[0, 1], [-1, 0], [1, 1]], cluster, ["x1", "x2", "y1"])
    path = write_seed(tmp_path, "bad", bad)
    identity = tmp_path / "m.json"
    built = runner.invoke(cl.main, ["construct-qh", path, path, "--out", str(identity)])
    assert built.exit_code == 0
    result = runner.invoke(
        cl.main, ["verify-qh", str(identity), path, path, "--inverse", str(identity)]
    )
    assert result.exit_code == 2
    payload = error_payload(result)
    assert payload["error"] == "not a seed of any pattern"
    assert payload["path"] == path
    assert payload["reason"] == "leading monomial not divisible"


def test_verify_qh_fixture_report(runner, gr25):
    _, paths = gr25
    result = runner.invoke(
        cl.main,
        ["verify-qh", paths["map"], paths["seed"], paths["band"],
         "--inverse", paths["wmap"]],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["principal_equal"] is True
    assert payload["matrix_identity"] is True
    assert payload["quasi_inverse"] is True
    assert payload["verdict"] is True
    for entry in payload["variables"]:
        assert entry["ok"] is True
        # witnesses are frozen monomial ratios: mutable exponents vanish
        assert entry["frozen_ratio"][:2] == [0, 0]


def test_verify_qh_detects_perturbation(runner, gr25, tmp_path):
    fx, paths = gr25
    matrix = [list(row) for row in fx.fstar_map.matrix]
    matrix[2][0] += 1
    path = tmp_path / "offmap.json"
    path.write_text(json.dumps({
        "matrix": matrix,
        "src_vars": fx.fstar_map.src_vars,
        "dst_vars": fx.fstar_map.dst_vars,
    }))
    result = runner.invoke(
        cl.main, ["verify-qh", str(path), paths["seed"], paths["band"]]
    )
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["verdict"] is False
    assert payload["matrix_identity"] is False


def test_verify_qh_text_format(runner, gr25):
    _, paths = gr25
    result = runner.invoke(
        cl.main,
        ["verify-qh", paths["map"], paths["seed"], paths["band"], "--format", "text"],
    )
    assert result.exit_code == 0
    assert result.output.rstrip().endswith("verdict: PASS")


def test_construct_qh_finds_verifiable_map(runner, gr25, tmp_path):
    _, paths = gr25
    out = str(tmp_path / "built.json")
    result = runner.invoke(
        cl.main, ["construct-qh", paths["seed"], paths["band"], "--out", out]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["principal_equal"] is True
    assert all(entry["integer"] for entry in payload["rows"])
    # the written map passes the verifier against the same seed pair
    check = runner.invoke(cl.main, ["verify-qh", out, paths["seed"], paths["band"]])
    assert check.exit_code == 0


def test_construct_qh_reports_principal_mismatch(runner, gr25, tmp_path):
    _, paths = gr25
    annulus = write_seed(tmp_path, "annulus", sf.annulus_fixture().seed)
    result = runner.invoke(cl.main, ["construct-qh", paths["seed"], annulus])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["principal_equal"] is False
    assert payload["map"] is None


def test_gradings_report(runner, gr25):
    fx, paths = gr25
    result = runner.invoke(cl.main, ["gradings", paths["seed"]])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["corank"] == 5
    for row in payload["basis"]:
        assert all(v == 0 for v in
                   [sum(r * b for r, b in zip(row, col))
                    for col in zip(*fx.gr_seed.btilde)])


def test_orbit_eq_accepts_rescaled_seed(runner, gr25, tmp_path):
    fx, paths = gr25
    seed = fx.gr_seed
    # multiply the first cluster variable by a frozen variable and absorb the
    # factor into the driven frozen row, keeping the coefficient pairs aligned
    btilde = [list(row) for row in seed.btilde]
    btilde[5][1] = 0
    cluster = list(seed.cluster)
    cluster[0] = lp.mul(cluster[0], lp.variable(5, 7))
    other = write_seed(tmp_path, "rescaled", sd.Seed(btilde, cluster, seed.var_names))
    result = runner.invoke(cl.main, ["orbit-eq", paths["seed"], other])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["equivalent"] is True
    assert payload["rescaling"]["c"][0][5] == -1


def test_orbit_eq_rejects_mutated_seed(runner, tmp_path):
    fx = sf.annulus_fixture()
    base = write_seed(tmp_path, "base", fx.seed)
    moved = write_seed(tmp_path, "moved", sd.mutate_word(fx.seed, fx.half_turn_word))
    result = runner.invoke(cl.main, ["orbit-eq", base, moved])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["equivalent"] is False
    assert "rescaling" not in payload


def test_orbit_eq_rejects_shape_mismatch(runner, gr25, tmp_path):
    _, paths = gr25
    annulus = write_seed(tmp_path, "annulus", sf.annulus_fixture().seed)
    result = runner.invoke(cl.main, ["orbit-eq", paths["seed"], annulus])
    assert result.exit_code == 2


def test_surface_report(runner):
    result = runner.invoke(cl.main, ["surface"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["verdict"] is True
    assert [c["name"] for c in payload["checks"]] == [
        "twist_realized",
        "half_turn_inequivalent",
        "doubled_pairing",
        "stabilizer_indices",
        "shear_relations",
        "kernel_basis",
        "residues_match_pairings",
    ]
    assert all(c["ok"] for c in payload["checks"])
    assert sorted(payload["laminations"]) == ["connector", "doubled", "inner_loop"]
    # embedded artifacts reload to the fixture objects
    fx = sf.annulus_fixture()
    assert sd.seed_to_json(sd.seed_from_json(payload["seed"])) == payload["seed"]
    reloaded = qh.map_from_json(payload["twist_map"], fx.seed.n, fx.twist_seed.n)
    assert qh.map_to_json(reloaded) == qh.map_to_json(fx.twist_map)
    assert (reloaded.src_mutable, reloaded.dst_mutable) == (
        fx.twist_map.src_mutable, fx.twist_map.dst_mutable)


def test_surface_text_format(runner):
    result = runner.invoke(cl.main, ["surface", "--format", "text"])
    assert result.exit_code == 0
    assert result.output.rstrip().endswith("verdict: PASS")
    assert result.output.count("PASS") == 8


def test_grassmann_data_report(runner):
    result = runner.invoke(cl.main, ["grassmann", "--kn", "2", "5"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert "checks" not in payload
    assert [f["coordinate"] for f in payload["factorizations"]] == [
        "D124", "D134", "D135", "D235", "D245",
    ]
    table = {f["coordinate"]: f for f in payload["factorizations"]}
    assert table["D235"]["content"] == {"Y35": 1}
    assert table["D235"]["minor"] == "Y1223"
    assert len(payload["relations"]) == 15
    assert all(r["holds"] for r in payload["relations"])
    # seeds and maps in the payload survive a JSON round trip
    for key in ("plucker_seed", "band_seed"):
        assert sd.seed_to_json(sd.seed_from_json(payload[key])) == payload[key]
    reloaded = qh.map_from_json(payload["flat_to_band"], 2, 2)
    assert qh.map_to_json(reloaded) == payload["flat_to_band"]


def test_grassmann_all_checks(runner):
    result = runner.invoke(cl.main, ["grassmann", "--kn", "2", "5", "--all-checks"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["verdict"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "relation_identities",
        "map_verification",
        "factorization",
        "flat_to_band_minors",
        "tropical_contents",
        "composite_identity",
    ]
    cases = {c["name"]: c["cases"] for c in payload["checks"]}
    assert cases["relation_identities"] == 15
    assert cases["flat_to_band_minors"] == 31
    assert cases["tropical_contents"] == 5
    assert cases["composite_identity"] == 10


def test_grassmann_rectangle_fixture(runner):
    result = runner.invoke(cl.main, ["grassmann", "--kn", "3", "6", "--all-checks"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["verdict"] is True
    assert payload["band_to_flat"] is None
    names = [c["name"] for c in payload["checks"]]
    assert "relation_identities" not in names
    assert "composite_identity" in names


def test_grassmann_rejects_unsupported_dimensions(runner):
    for k, n in ((1, 4), (3, 4)):
        result = runner.invoke(cl.main, ["grassmann", "--kn", str(k), str(n)])
        assert result.exit_code == 2
        assert error_payload(result) == {
            "error": "unsupported dimensions",
            "reason": f"rectangle cluster needs k >= 2 and n - k >= 2; got k={k}, n={n}",
        }
    # nine columns and more are served, not capped
    for k, n in ((4, 9), (2, 10)):
        result = runner.invoke(cl.main, ["grassmann", "--kn", str(k), str(n)])
        assert result.exit_code == 0
        assert (json.loads(result.output)["k"], json.loads(result.output)["n"]) == (k, n)


def test_grassmann_all_checks_4_9(runner):
    result = runner.invoke(cl.main, ["grassmann", "--kn", "4", "9", "--all-checks"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["verdict"] is True
    assert [(c["name"], c["cases"]) for c in payload["checks"]] == [
        ("map_verification", 1),
        ("factorization", 118),
        ("flat_to_band_minors", 456),
        ("tropical_contents", 1260),
        ("composite_identity", 126),
    ]


def write_map(tmp_path, m):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(qh.map_to_json(m)))
    return str(path)


def test_verify_qh_rejects_map_that_misses_target(runner, tmp_path):
    src = a2_path(tmp_path, [X1, X2])
    y1 = sd.Seed([[0, 1], [-1, 0], [0, 0]], [lp.variable(0, 3), lp.variable(1, 3)],
                 ["x1", "x2", "y1"])
    dst = write_seed(tmp_path, "a2y", y1)
    identity = write_map(tmp_path, qh.MonomialMap(
        [[1, 0], [0, 1]], ["x1", "x2"], ["x1", "x2"], 2, 2))
    result = runner.invoke(cl.main, ["verify-qh", identity, src, dst])
    assert result.exit_code == 2
    assert error_payload(result) == {
        "error": "map does not fit the target seed",
        "reason": "2 target variables, the seed has 3",
    }


def test_verify_qh_rejects_map_that_misses_source(runner, tmp_path):
    src = a2_path(tmp_path, [X1, X2])
    m = qh.MonomialMap([[1, 0, 0], [0, 1, 0]], ["x1", "x2", "y1"], ["x1", "x2"], 2, 2)
    result = runner.invoke(cl.main, ["verify-qh", write_map(tmp_path, m), src, src])
    assert result.exit_code == 2
    assert error_payload(result)["error"] == "map does not fit the source seed"


def test_verify_qh_rejects_inverse_that_misses_a_seed(runner, tmp_path):
    # the inverse runs target -> source, so its sides swap
    src = a2_path(tmp_path, [X1, X2])
    y1 = sd.Seed([[0, 1], [-1, 0], [0, 0]], [lp.variable(0, 3), lp.variable(1, 3)],
                 ["x1", "x2", "y1"])
    dst = write_seed(tmp_path, "a2y", y1)
    forward = write_map(tmp_path, qh.MonomialMap(
        [[1, 0], [0, 1], [0, 0]], ["x1", "x2"], ["x1", "x2", "y1"], 2, 2))
    for name, matrix, src_vars, dst_vars, side, reason in [
        ("w3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ["x1", "x2", "y1"], ["x1", "x2", "y1"],
         "source", "3 target variables, the seed has 2"),
        ("w2", [[1, 0], [0, 1]], ["x1", "x2"], ["x1", "x2"],
         "target", "2 source variables, the seed has 3"),
    ]:
        inverse = tmp_path / f"{name}.json"
        inverse.write_text(json.dumps(
            {"matrix": matrix, "src_vars": src_vars, "dst_vars": dst_vars}))
        result = runner.invoke(
            cl.main, ["verify-qh", forward, src, dst, "--inverse", str(inverse)])
        assert result.exit_code == 2
        assert error_payload(result) == {
            "error": f"inverse map does not fit the {side} seed", "reason": reason,
        }


SEED_READERS = {
    "mutate": lambda bad, good: ["mutate", bad, "--word", "0"],
    "explore": lambda bad, good: ["explore", bad],
    "verify-qh": lambda bad, good: ["verify-qh", good, bad, good],
    "construct-qh": lambda bad, good: ["construct-qh", good, bad],
    "gradings": lambda bad, good: ["gradings", bad],
    "orbit-eq": lambda bad, good: ["orbit-eq", good, bad],
}


@pytest.mark.parametrize("command", sorted(SEED_READERS))
@pytest.mark.parametrize("text, error", [
    ('{"n": 2}', "invalid seed"),
    ('{"n": 2, ', "invalid JSON"),
    # negative counts used to be echoed back as n = 0, m = 0 with exit 0
    ('{"n": -1, "m": 1, "btilde": [], "cluster": [], "var_names": []}', "invalid seed"),
    ('{"n": 2, "m": -2, "btilde": [], "cluster": [], "var_names": []}', "invalid seed"),
])
def test_malformed_seed_exits_2(runner, tmp_path, command, text, error):
    bad = tmp_path / "broken.json"
    bad.write_text(text)
    good = a2_path(tmp_path, [X1, X2])
    result = runner.invoke(cl.main, SEED_READERS[command](str(bad), good))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert error_payload(result)["error"] == error


@pytest.mark.parametrize("command", sorted(SEED_READERS))
def test_non_utf8_seed_exits_2(runner, tmp_path, command):
    # the decode error used to escape as a traceback with exit 1
    bad = tmp_path / "latin.json"
    bad.write_bytes(b"\xff")
    good = a2_path(tmp_path, [X1, X2])
    result = runner.invoke(cl.main, SEED_READERS[command](str(bad), good))
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    payload = error_payload(result)
    assert (payload["error"], payload["path"]) == ("invalid JSON", str(bad))


@pytest.mark.parametrize("command", sorted(SEED_READERS))
def test_deeply_nested_json_exits_2(runner, tmp_path, command):
    # the decoder's RecursionError used to escape as a traceback with exit 1
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100000 + "]" * 100000)
    good = a2_path(tmp_path, [X1, X2])
    result = runner.invoke(cl.main, SEED_READERS[command](str(bad), good))
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    payload = error_payload(result)
    assert (payload["error"], payload["path"]) == ("invalid JSON", str(bad))


@pytest.mark.parametrize("argv, module, name", [
    (["surface"], sf, "check_suites"),
    (["grassmann", "--kn", "2", "60"], gx, "build_fixture"),
])
def test_running_out_of_memory_exits_2(runner, monkeypatch, argv, module, name):
    # a MemoryError used to escape as a traceback with exit 1, which means
    # a failed check
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(module, name, exhaust)
    result = runner.invoke(cl.main, argv)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stdout == ""
    assert error_payload(result) == {"error": "out of memory", "command": argv[0]}


RANK_0 = {"n": 0, "m": 0, "btilde": [], "cluster": [], "var_names": []}


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
def test_construct_qh_between_rank_0_seeds(runner, tmp_path, out):
    # an empty btilde has no first row to read the rank from
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps(RANK_0))
    written = tmp_path / "map.json"
    argv = ["construct-qh", str(path), str(path)] + (["--out", str(written)] if out else [])
    result = runner.invoke(cl.main, argv)
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["principal_equal"] is True and payload["map"] == []
    if out:
        assert json.loads(written.read_text())["matrix"] == []
        check = runner.invoke(cl.main, ["verify-qh", str(written), str(path), str(path)])
        assert check.exit_code == 0


@pytest.mark.parametrize("rank_0_first", [True, False], ids=["rank0-a2", "a2-rank0"])
def test_construct_qh_rank_0_against_a2(runner, tmp_path, rank_0_first):
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps(RANK_0))
    pair = [str(path), a2_path(tmp_path, [X1, X2])]
    result = runner.invoke(cl.main, ["construct-qh", *(pair if rank_0_first else pair[::-1])])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["principal_equal"] is False and payload["map"] is None


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


@pytest.mark.parametrize("path, value, reason", [
    (("n",), True, "n and m must be integers, got True"),
    (("btilde", 0, 1), 1.5, "btilde entries must be integers, got 1.5"),
    (("btilde", 0), 5, "btilde entries must be a list of integers, got 5"),
    (("cluster", 0, "terms", 0, "exp", 0), 1.9, "exponents must be integers, got 1.9"),
    (("cluster", 0, "terms", 0, "coef"), 1.2, "coefficients must be integers, got 1.2"),
    (("cluster", 0, "terms", 0, "coef"), "1_0",
     "coefficient strings must be plain decimals, got '1_0'"),
    (("cluster", 0, "terms", 0, "coef"), " 7 ",
     "coefficient strings must be plain decimals, got ' 7 '"),
    (("cluster", 0, "terms", 0, "coef"), "\u0667",
     "coefficient strings must be plain decimals, got '\u0667'"),
    (("cluster", 0, "terms", 0, "coef"), "+1",
     "coefficient strings must be plain decimals, got '+1'"),
], ids=["bool-n", "float-btilde", "int-btilde-row", "float-exponent", "float-coefficient",
        "underscore-coefficient", "spaced-coefficient", "arabic-indic-coefficient",
        "plus-coefficient"])
def test_non_integer_seed_fields_exit_2(runner, tmp_path, path, value, reason):
    # before, int() truncated 1.5 to 1 and read "1_0" as 10 and " 7 " and an
    # Arabic-Indic seven as 7, and the mutation ran on the wrong seed
    obj = sd.seed_to_json(sd.Seed([[0, 1], [-1, 0]], [X1, X2], ["x1", "x2"]))
    _set(obj, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    result = runner.invoke(cl.main, ["mutate", str(bad), "--word", "0"])
    assert result.exit_code == 2
    assert error_payload(result) == {"error": "invalid seed", "path": str(bad), "reason": reason}


def test_missing_seed_field_is_named(runner, tmp_path):
    # before, the reason was the bare KeyError text "'terms'"
    obj = sd.seed_to_json(sd.Seed([[0, 1], [-1, 0]], [X1, X2], ["x1", "x2"]))
    del obj["cluster"][0]["terms"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    result = runner.invoke(cl.main, ["mutate", str(bad), "--word", "0"])
    assert result.exit_code == 2
    assert error_payload(result) == {
        "error": "invalid seed", "path": str(bad), "reason": "missing field 'terms'"}


def test_integer_coefficient_is_read(runner, tmp_path):
    obj = sd.seed_to_json(sd.Seed([[0, 1], [-1, 0]], [X1, X2], ["x1", "x2"]))
    obj["cluster"][0]["terms"][0]["coef"] = 1
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(cl.main, ["mutate", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["seed"] == sd.seed_to_json(
        sd.Seed([[0, 1], [-1, 0]], [X1, X2], ["x1", "x2"]))


@pytest.mark.parametrize("entry, shown", [("1", "'1'"), (1.0, "1.0"), (True, "True")],
                         ids=["str", "float", "bool"])
def test_non_integer_map_entries_exit_2(runner, tmp_path, entry, shown):
    # before, "1" and 1.0 raised a TypeError traceback and true was read as 1
    src = a2_path(tmp_path, [X1, X2])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"matrix": [[entry, 0], [0, 1]], "src_vars": ["x1", "x2"], "dst_vars": ["x1", "x2"]}))
    result = runner.invoke(cl.main, ["verify-qh", str(path), src, src])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert error_payload(result) == {
        "error": "invalid map", "path": str(path),
        "reason": f"map entries must be integers, got {shown}",
    }


@pytest.mark.parametrize("file, path, value, reason", [
    ("seed", ("var_names",), "ab", "var_names must be a list of strings, got 'ab'"),
    ("seed", ("var_names",), [1, 2], "var_names must be strings, got 1"),
    ("seed", ("cluster", 0, "vars"), "ab", "vars must be a list of strings, got 'ab'"),
    ("map", ("src_vars",), "ab", "src_vars must be a list of strings, got 'ab'"),
    ("map", ("dst_vars",), [1, 2], "dst_vars must be strings, got 1"),
], ids=["string-var-names", "int-var-names", "string-vars", "string-src-vars",
        "int-dst-vars"])
def test_names_are_read_not_coerced(runner, tmp_path, file, path, value, reason):
    # before, a string was split into one-letter names and numbers became
    # names, so mutate and verify-qh ran on these files with exit 0
    seed = sd.seed_to_json(sd.Seed([[0, 1], [-1, 0]], [X1, X2], ["a", "b"]))
    if path == ("var_names",):
        for entry in seed["cluster"]:
            entry["vars"] = value
    identity = {"matrix": [[1, 0], [0, 1]], "src_vars": ["a", "b"], "dst_vars": ["a", "b"]}
    objs = {"seed": seed, "map": identity}
    _set(objs[file], path, value)
    for name, obj in objs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    seed_path, map_path = str(tmp_path / "seed.json"), str(tmp_path / "map.json")
    argv = (["mutate", seed_path, "--word", "0"] if file == "seed"
            else ["verify-qh", map_path, seed_path, seed_path])
    result = runner.invoke(cl.main, argv)
    assert result.exit_code == 2
    assert error_payload(result) == {
        "error": f"invalid {file}", "path": str(tmp_path / f"{file}.json"), "reason": reason,
    }


@pytest.mark.parametrize("file, path, value, reason", [
    ("seed", ("btilde",), 5, "btilde must be a list, got 5"),
    ("seed", ("cluster",), 5, "cluster must be a list, got 5"),
    ("seed", ("cluster", 0, "terms"), 5, "terms must be a list, got 5"),
    ("seed", ("cluster", 0, "terms", 0), [1], "terms entries must be an object, got [1]"),
    ("seed", ("cluster", 0), [1], "cluster entries must be an object, got [1]"),
    ("seed", (), [1], "the top level must be an object, got [1]"),
    ("map", ("matrix",), 5, "matrix must be a list, got 5"),
    ("map", (), [1], "the top level must be an object, got [1]"),
], ids=["int-btilde", "int-cluster", "int-terms", "list-term", "list-cluster-entry",
        "list-seed", "int-matrix", "list-map"])
def test_container_shape_faults_name_their_field(runner, tmp_path, file, path, value, reason):
    # before, these gave "'int' object is not iterable" or "list indices
    # must be integers or slices, not str"
    objs = {
        "seed": sd.seed_to_json(sd.Seed([[0, 1], [-1, 0]], [X1, X2], ["a", "b"])),
        "map": {"matrix": [[1, 0], [0, 1]], "src_vars": ["a", "b"], "dst_vars": ["a", "b"]},
    }
    if path:
        _set(objs[file], path, value)
    else:
        objs[file] = value
    for name, obj in objs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    seed_path, map_path = str(tmp_path / "seed.json"), str(tmp_path / "map.json")
    argv = (["mutate", seed_path, "--word", "0"] if file == "seed"
            else ["verify-qh", map_path, seed_path, seed_path])
    result = runner.invoke(cl.main, argv)
    assert result.exit_code == 2
    assert error_payload(result) == {
        "error": f"invalid {file}", "path": str(tmp_path / f"{file}.json"), "reason": reason,
    }


@pytest.mark.parametrize("command", ["construct-qh", "gradings", "orbit-eq"])
def test_non_pattern_seed_is_answered(runner, tmp_path, command):
    # x1^2 + x1 does not divide the exchange polynomial in direction 0;
    # these commands never mutate, so they answer without a traceback
    x1, x2 = lp.variable(0, 3), lp.variable(1, 3)
    bad = sd.Seed([[0, 1], [-1, 0], [1, 1]], [lp.add(lp.mul(x1, x1), x1), x2],
                  ["x1", "x2", "y1"])
    path = write_seed(tmp_path, "bad", bad)
    argv = [command, path] if command == "gradings" else [command, path, path]
    result = runner.invoke(cl.main, argv)
    assert result.exit_code in (0, 1)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    json.loads(result.stdout)


@pytest.mark.parametrize("argv, module, name, case, suite, failure", [
    (["surface"], sf, "shear_relation_check",
     lambda matrix, lam: lam == sf.annulus_fixture().laminations["connector"],
     "shear_relations", "connector"),
    (["grassmann", "--kn", "3", "6", "--all-checks"], gx, "flattoband_check",
     lambda ctx, a, s, j_set: (a, s, tuple(j_set)) == (2, 2, (3, 5)),
     "flat_to_band_minors", "rows [2, 3], columns [3, 5]"),
], ids=["surface", "grassmann"])
def test_failed_case_is_reported_in_its_suite(runner, monkeypatch, argv, module, name,
                                               case, suite, failure):
    # the check fails on the one case that `case` accepts
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: not case(*args) and real(*args))
    result = runner.invoke(cl.main, argv)
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["verdict"] is False
    failed = {c["name"]: c["failures"] for c in payload["checks"] if c["failures"]}
    assert failed == {suite: [failure]}
    text = runner.invoke(cl.main, argv + ["--format", "text"])
    assert text.exit_code == 1
    assert f"FAIL {suite} (" in text.output and f"  {failure}\n" in text.output
    assert text.output.endswith("verdict: FAIL\n")


def test_grassmann_relations_computed_once(runner, monkeypatch):
    calls = []
    checks = gx.quintic_relation_checks
    monkeypatch.setattr(gx, "quintic_relation_checks",
                        lambda ctx: calls.append(ctx) or checks(ctx))
    result = runner.invoke(cl.main, ["grassmann", "--kn", "2", "5", "--all-checks"])
    assert result.exit_code == 0
    assert len(calls) == 1
    payload = json.loads(result.output)
    assert payload["checks"][0]["cases"] == len(payload["relations"]) == 15


# A random 22 x 15 extended matrix: skew-symmetric principal part, frozen rows
# and upper entries drawn uniformly from [-3, 3] by random.Random(176) (the
# first seed below 400 whose grading basis, under exgcd elimination, had
# entries past Python's default 4300-digit int-to-str limit; its largest had
# 9112 digits).
RANK15_BTILDE = [
    [ 0, -3,  3, -2,  3, -3,  3,  0,  2, -1,  2,  2,  1,  0, -3],
    [ 3,  0, -3, -3, -1,  1, -1, -1,  0, -1, -1,  3, -1,  1,  2],
    [-3,  3,  0,  0,  0,  2, -3, -2,  0, -2,  3,  2,  2,  0, -3],
    [ 2,  3,  0,  0,  3, -3, -1,  0,  0,  2, -1, -1,  1, -1,  0],
    [-3,  1,  0, -3,  0, -1, -3,  0, -1, -3,  0,  0, -3,  3,  0],
    [ 3, -1, -2,  3,  1,  0, -3,  0, -3, -2,  1,  3, -1, -1,  1],
    [-3,  1,  3,  1,  3,  3,  0,  3, -1, -1,  1, -2,  1, -3,  2],
    [ 0,  1,  2,  0,  0,  0, -3,  0,  0, -1, -3, -2,  3, -2, -1],
    [-2,  0,  0,  0,  1,  3,  1,  0,  0, -3,  1, -1,  0, -2,  1],
    [ 1,  1,  2, -2,  3,  2,  1,  1,  3,  0,  0,  0, -3, -1,  1],
    [-2,  1, -3,  1,  0, -1, -1,  3, -1,  0,  0,  3,  0, -1,  1],
    [-2, -3, -2,  1,  0, -3,  2,  2,  1,  0, -3,  0,  0, -2,  3],
    [-1,  1, -2, -1,  3,  1, -1, -3,  0,  3,  0,  0,  0,  3,  2],
    [ 0, -1,  0,  1, -3,  1,  3,  2,  2,  1,  1,  2, -3,  0, -2],
    [ 3, -2,  3,  0,  0, -1, -2,  1, -1, -1, -1, -3, -2,  2,  0],
    [-2, -1, -2, -3, -3, -2, -3, -1, -2,  0,  0, -2, -3,  1, -1],
    [ 2,  0, -3, -1, -3, -2, -3,  3,  3, -1,  1,  2,  1, -2, -2],
    [ 1,  0, -1, -3, -3,  0, -1,  2,  1,  1, -3, -1,  3,  2, -1],
    [-2, -1, -1, -2, -1,  1,  1, -3,  1, -1, -1, -2,  3,  0,  0],
    [ 0, -3, -2, -1,  0, -1, -3, -3,  3, -2,  0, -1, -1, -1,  3],
    [ 2,  1,  1, -3,  3,  3, -1, -2,  3, -3, -3,  2, -1,  2, -3],
    [ 3,  3, -2,  2,  0, -3,  2,  0, -2,  2, -2, -1,  1, -1,  1],
]


@pytest.fixture
def int_str_limit():
    """Python's default int-to-str limit during the test, the old one after:
    the CLI lifts the limit for the whole process."""
    get = getattr(sys, "get_int_max_str_digits", None)
    before = get() if get else None
    if get:
        sys.set_int_max_str_digits(4300)
    yield
    if get:
        sys.set_int_max_str_digits(before)


def test_mutate_echoes_long_coefficient(runner, tmp_path, int_str_limit):
    coef = "7" * 5001
    seed = {"n": 1, "m": 0, "btilde": [[0]], "var_names": ["x1"],
            "cluster": [{"vars": ["x1"], "terms": [{"exp": [1], "coef": coef}]}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(seed))
    result = runner.invoke(cl.main, ["mutate", str(path), "--word", ""])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["seed"]["cluster"][0]["terms"][0]["coef"] == coef


def test_gradings_rows_stay_small(runner, tmp_path):
    names = [f"x{i}" for i in range(1, 16)] + [f"y{i}" for i in range(1, 8)]
    path = write_seed(tmp_path, "rank15", sd.initial_seed(RANK15_BTILDE, names))
    result = runner.invoke(cl.main, ["gradings", path])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["corank"] == len(payload["basis"]) == 7
    assert all(not any(la.vec_mat(row, RANK15_BTILDE)) for row in payload["basis"])
    assert all(abs(x).bit_length() < 64 for row in payload["basis"] for x in row)


# ---------------------------------------------------------------------------
# the JSON text writer

JSON_STRINGS = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u20ac\U0001f600'),
    st.characters(),
))
LONG_INTS = st.builds(lambda sign, digits: sign * (10 ** digits - 1),
                      st.sampled_from([1, -1]), st.integers(4290, 4310))
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), LONG_INTS, JSON_STRINGS)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(JSON_STRINGS, inner, max_size=5),
        st.lists(st.integers(), max_size=5),
        st.lists(JSON_STRINGS, max_size=5),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
    ),
    max_leaves=40,
)


@pytest.fixture(scope="module")
def unlimited_int_str():
    """No int-to-str limit during these tests, the old one after."""
    get = getattr(sys, "get_int_max_str_digits", None)
    before = get() if get else None
    if get:
        sys.set_int_max_str_digits(0)
    yield
    if get:
        sys.set_int_max_str_digits(before)


@settings(max_examples=400)
@given(JSON_TREES)
def test_json_text_is_json_dumps_indent_2(unlimited_int_str, obj):
    assert "".join(cl._json(obj)) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [1.5, {"a": object()}, [{1, 2}], {1: "one"}, {None: 0}])
def test_json_text_rejects_other_types(obj):
    # floats and non-str keys never occur in a payload
    with pytest.raises(TypeError):
        "".join(cl._json(obj))


class CountingSink(io.TextIOBase):
    """A stdout that keeps nothing: it counts the characters written."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


def test_base_report_is_never_whole_in_memory():
    # the (2,40) base report in JSON is 1,479,881 bytes; built whole, with
    # its text, it peaked at about 7 MB under tracemalloc, and streamed it
    # holds the caches of the fixture (warm or cold) and one block of text
    sink = CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink), pytest.raises(SystemExit) as exited:
            cl.main(["grassmann", "--kn", "2", "40"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exited.value.code, sink.written) == (0, 1479881)
    assert peak < 2 * sink.written


# every subcommand, and one stderr payload: (argv, files written by --out)
COMMANDS = {
    "mutate": lambda p, out: (["mutate", p["seed"], "--word", "1,0,1"], []),
    "mutate-out": lambda p, out: (["mutate", p["seed"], "--word", "0", "--out", out], [out]),
    "explore": lambda p, out: (["explore", p["seed"]], []),
    "verify-qh": lambda p, out: (
        ["verify-qh", p["map"], p["seed"], p["band"], "--inverse", p["wmap"]], []),
    "construct-qh": lambda p, out: (["construct-qh", p["seed"], p["band"], "--out", out], [out]),
    "gradings": lambda p, out: (["gradings", p["band"]], []),
    "orbit-eq": lambda p, out: (["orbit-eq", p["seed"], p["seed"]], []),
    "surface": lambda p, out: (["surface"], []),
    "grassmann": lambda p, out: (["grassmann", "--kn", "2", "5", "--all-checks"], []),
    "exit-2": lambda p, out: (["mutate", p["seed"], "--word", "0,7"], []),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_json_output_is_indented_json_dumps(runner, gr25, tmp_path, command):
    _, paths = gr25
    argv, written = COMMANDS[command](paths, str(tmp_path / "out.json"))
    result = runner.invoke(cl.main, argv)
    texts = [result.output]
    if command == "exit-2":
        assert result.exit_code == 2
        texts = [result.output.split("Error: ", 1)[1]]
    else:
        assert result.exit_code == 0, result.output
    texts += [open(path, encoding="utf-8").read() for path in written]
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_mutate_renders_each_variable_once(runner, gr25, monkeypatch):
    fx, paths = gr25
    word = [1, 0, 1, 1, 0, 1]
    calls = []
    to_str = lp.to_str
    monkeypatch.setattr(lp, "to_str", lambda f, names: calls.append(f) or to_str(f, names))
    result = runner.invoke(cl.main, ["mutate", paths["seed"], "--word", "1,0,1,1,0,1"])
    assert result.exit_code == 0
    assert len(calls) == len(word) + len(set(word))
    steps = json.loads(result.output)["steps"]
    seed = fx.gr_seed
    for k, step in zip(word, steps):
        assert step["removed"] == to_str(seed.cluster[k], seed.var_names)
        seed = sd.mutate_seed(seed, k)
        assert step["introduced"] == to_str(seed.cluster[k], seed.var_names)


def _fields(obj, path=()):
    """The path of every value below the root of a JSON document."""
    items = obj.items() if type(obj) is dict else enumerate(obj) if type(obj) is list else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _fuzzed(obj, rng):
    """A copy of obj with one field changed: a swapped type, a string where a
    list belongs, a missing key or a ragged shape."""
    obj = json.loads(json.dumps(obj))
    path = rng.choice(list(_fields(obj)))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    kind = rng.choice(["swap", "string", "missing", "ragged"])
    if kind == "missing":
        del parent[path[-1]]
    elif kind == "ragged" and type(value) is list:
        value.append(value[-1] if value else 0)
    elif kind == "string" and type(value) is list:
        parent[path[-1]] = "ab"
    else:
        parent[path[-1]] = rng.choice([x for x in (None, True, 2.5, "7", 7, [], {})
                                       if type(x) is not type(value)])
    return obj


# each command, with its input files named by the fixture file they start from
FUZZ_COMMANDS = {
    "mutate": ["mutate", "seed", "--word", "0,1"],
    "explore": ["explore", "seed", "--max-depth", "2", "--max-nodes", "8"],
    "verify-qh": ["verify-qh", "map", "seed", "band"],
    "construct-qh": ["construct-qh", "seed", "band"],
    "gradings": ["gradings", "band"],
    "orbit-eq": ["orbit-eq", "seed", "seed"],
}


def test_fuzzed_inputs_get_an_answer_or_a_typed_error(runner, gr25, tmp_path):
    # one changed field per case: exit 0, 1 or 2, never an uncaught exception,
    # and every exit-2 payload on stderr is JSON
    fx, paths = gr25
    docs = {"seed": sd.seed_to_json(fx.gr_seed), "band": sd.seed_to_json(fx.band_seed),
            "map": qh.map_to_json(fx.fstar_map)}
    rng = random.Random(11)
    bad = tmp_path / "bad.json"
    for case in range(300):
        argv = FUZZ_COMMANDS[sorted(FUZZ_COMMANDS)[case % len(FUZZ_COMMANDS)]]
        target = rng.choice([arg for arg in argv if arg in docs])
        obj = _fuzzed(docs[target], rng)
        bad.write_text(json.dumps(obj))
        argv = [str(bad) if arg == target else paths.get(arg, arg) for arg in argv]
        result = runner.invoke(cl.main, argv)
        assert result.exit_code in (0, 1, 2), (argv, obj, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            argv, obj, repr(result.exception))
        assert "Traceback" not in result.output
        if result.exit_code == 2:
            json.loads(result.stderr.split("Error: ", 1)[1])


# ---------------------------------------------------------------------------
# the boundary probe

# a valid line of each subcommand, its files named by the fixture file they
# start from (`copy` is the Gr(2,5) seed again), each run bounded by small
# --max-depth, --max-nodes and --kn values
PROBE_LINES = {
    "mutate": ["mutate", "seed", "--word", "0,1"],
    "explore": ["explore", "seed", "--max-depth", "2", "--max-nodes", "8"],
    "verify-qh": ["verify-qh", "map", "seed", "band", "--inverse", "wmap"],
    "construct-qh": ["construct-qh", "seed", "band"],
    "gradings": ["gradings", "band"],
    "orbit-eq": ["orbit-eq", "seed", "copy"],
    "surface": ["surface"],
    "grassmann": ["grassmann", "--kn", "2", "5"],
}

# the values a malformed line gives an option: counts for the options that
# convert theirs (so --kn stays at most 5), the choices and two that are
# not, and for the rest words, files (`out` is written, `missing` is not
# there) and a label out of range
PROBE_VALUES = {
    "count": ["0", "1", "2", "3", "5", "-1", "x", "", "1_0", "+2"],
    "other": ["out", "missing", "seed", "0,1", "9", ""],
}


def _edited(obj, rng):
    """A copy of obj with one to three fields deleted, retyped, resized or
    shifted (a list rotated by one place, an integer moved by one).  Each
    field is found by a walk down from the top that stops at each level
    with even odds, so that the top-level fields are edited often."""
    obj = json.loads(json.dumps(obj))
    for _ in range(rng.randint(1, 3)):
        parent, key = None, None
        node = obj
        while type(node) in (dict, list) and node and (parent is None or rng.random() < 0.5):
            parent, key = node, rng.choice(list(node) if type(node) is dict else range(len(node)))
            node = parent[key]
        if parent is None:
            break
        kind = rng.choice(["delete", "retype", "resize", "shift"])
        if kind == "delete":
            del parent[key]
        elif kind == "resize" and type(node) in (list, str) and node:
            parent[key] = node[:-1] if rng.random() < 0.5 else node + node[-1:]
        elif kind == "shift" and type(node) is list:
            parent[key] = node[1:] + node[:1]
        elif kind == "shift" and type(node) is int:
            parent[key] = node + rng.choice([-1, 1])
        else:
            parent[key] = rng.choice([x for x in (None, True, 2.5, "7", 7, [], {})
                                      if type(x) is not type(node)])
    return obj


def _malformed(line, rng):
    """The line with one or two faults drawn from its command's table: a
    token missing, an option repeated or given values from PROBE_VALUES,
    too few values, a value inline, an unknown option or extra positional,
    or a `--` before the rest."""
    _, _, _, flags, _ = cl._COMMANDS[line[0]]
    argv = list(line)
    for _ in range(rng.randint(1, 2)):
        flag = rng.choice(sorted(flags))
        _, count, convert, choices, _ = flags[flag]
        pool = (PROBE_VALUES["count"] if convert is not None
                else [*choices, "xml", ""] if choices else PROBE_VALUES["other"])
        values = [rng.choice(pool) for _ in range(count)]
        fault = rng.randrange(6)
        if fault == 0 and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        elif fault == 1:
            argv += [flag, *values]
        elif fault == 2:
            argv += [flag, *values[1:]]
        elif fault == 3:
            argv.append(f"{flag}={rng.choice(pool)}")
        else:
            token = "--" if fault == 5 else rng.choice(["--bogus", "-x", "extra", "-"])
            argv.insert(rng.randrange(1, len(argv) + 1), token)
    return argv


def _probe(runner, argv):
    """Run a line and check the contract: exit 0, 1 or 2 and no traceback;
    an exit 2 writes nothing to stdout and a usage error or a payload that
    names `error` to stderr; an exit 0 or 1 in JSON writes JSON."""
    result = runner.invoke(cl.main, argv)
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, repr(result.exception))
    assert "Traceback" not in result.output, argv
    if result.exit_code == 2:
        assert result.stdout == "", argv
        if not result.stderr.startswith("usage: clusterkit"):
            assert "error" in error_payload(result), argv
    elif cl._parse(argv)[2]["fmt"] == "json":
        json.loads(result.stdout)
    return result.exit_code


def test_boundary_probe(runner, gr25, tmp_path, monkeypatch):
    fx, paths = gr25
    monkeypatch.chdir(tmp_path)
    paths["out"], paths["missing"] = str(tmp_path / "out.json"), str(tmp_path / "missing.json")
    paths["copy"] = paths["seed"]
    docs = {"seed": sd.seed_to_json(fx.gr_seed), "band": sd.seed_to_json(fx.band_seed),
            "map": qh.map_to_json(fx.fstar_map), "wmap": qh.map_to_json(fx.gstar_map)}
    docs["copy"] = docs["seed"]
    rng = random.Random(20)
    bad = tmp_path / "bad.json"
    with_files = [line for line in PROBE_LINES.values() if set(line) & set(docs)]
    codes = {"edited": set(), "nudged": set(), "malformed": set()}
    for case in range(600):
        line = with_files[case % len(with_files)]
        target = rng.choice([arg for arg in line if arg in docs])
        bad.write_text(json.dumps(_edited(docs[target], rng)))
        argv = [str(bad) if arg == target else paths.get(arg, arg) for arg in line]
        codes["edited"].add(_probe(runner, argv))
    for case in range(100):
        # one integer of a map changed: the maps still fit their seeds
        target = rng.choice(["map", "wmap"])
        nudged = json.loads(json.dumps(docs[target]))
        row = rng.choice(nudged["matrix"])
        row[rng.randrange(len(row))] += rng.choice([-1, 1])
        bad.write_text(json.dumps(nudged))
        argv = [str(bad) if arg == target else paths.get(arg, arg)
                for arg in PROBE_LINES["verify-qh"]]
        codes["nudged"].add(_probe(runner, argv))
    for case in range(400):
        line = PROBE_LINES[sorted(PROBE_LINES)[case % len(PROBE_LINES)]]
        argv = [paths.get(arg, arg) for arg in _malformed(line, rng)]
        codes["malformed"].add(_probe(runner, argv))
    # the probe reaches every exit status: a failed check through the nudged maps
    assert {0, 1, 2} <= codes["edited"] and 1 in codes["nudged"]
    assert {0, 2} <= codes["malformed"]


# ---------------------------------------------------------------------------
# the front end

# every option of each subcommand, as its --help must name it
OPTIONS = {
    "mutate": ["--word", "--out", "--format"],
    "explore": ["--max-depth", "--max-nodes", "--format"],
    "verify-qh": ["--inverse", "--opposite", "--no-opposite", "--format"],
    "construct-qh": ["--out", "--format"],
    "gradings": ["--format"],
    "orbit-eq": ["--format"],
    "surface": ["--format"],
    "grassmann": ["--kn", "--all-checks", "--format"],
}


def test_main_main_exits_with_the_command_code(gr25, tmp_path, capsys):
    # the calling convention of the benchmark runner
    _, paths = gr25
    fx = sf.annulus_fixture()
    base = write_seed(tmp_path, "base", fx.seed)
    moved = write_seed(tmp_path, "moved", sd.mutate_word(fx.seed, fx.half_turn_word))
    for argv, code in [(["gradings", paths["seed"]], 0),
                       (["orbit-eq", base, moved], 1),
                       (["gradings", str(tmp_path / "none.json")], 2)]:
        with pytest.raises(SystemExit) as exited:
            cl.main.main(args=argv, prog_name="clusterkit", standalone_mode=True)
        assert exited.value.code == code
    assert "unreadable file" in capsys.readouterr().err


def _child_env():
    """The environment of an interpreter that imports this clusterkit and
    writes no bytecode caches into it."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cl.__file__)),
                PYTHONDONTWRITEBYTECODE="1")


def test_import_leaves_click_out():
    # nor argparse, whose first parse compiles about a dozen regexes, nor
    # the gettext and locale modules it imports, before or after a run
    code = ("import sys, clusterkit.cli as cli\n"
            "names = ('click', 'argparse', 'gettext', 'locale')\n"
            "print([m for m in names if m in sys.modules], file=sys.stderr)\n"
            "try:\n"
            "    cli.main(['grassmann', '--kn', '2', '5', '--format', 'text'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print([m for m in names if m in sys.modules], file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout.startswith("fixture k=2 n=5\n")
    assert done.stderr == "[]\n[]\n"


def test_import_leaves_dataclasses_out():
    # nor inspect, which dataclasses imports; -S keeps site-packages from
    # importing either first
    code = ("import sys, clusterkit.cli\n"
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def reference_parser():
    """The parser that the standard library builds from the command table,
    one sub-parser per command: the reading `_parse` must agree with."""
    import argparse

    parser = argparse.ArgumentParser(prog="clusterkit", allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (_, arguments, *_) in cl._COMMANDS.items():
        sub = commands.add_parser(name, allow_abbrev=False)
        for (flag,), options in arguments:
            on, _, off = flag.partition("/")
            if off:
                sub.add_argument(on, action=argparse.BooleanOptionalAction, default=False,
                                 **options)
            else:
                sub.add_argument(flag, **options)
        sub.set_defaults(command=name)
    return parser


REFERENCE = reference_parser()


def reference_reading(argv):
    """(command, options) as the reference reads argv, or None when it
    rejects the line."""
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            options = vars(REFERENCE.parse_args(argv))
        except SystemExit:
            return None
    return options.pop("command"), options


def accepted_lines():
    lines = []
    for name, (_, arguments, positionals, *_) in cl._COMMANDS.items():
        base = [name] + [f"{p}.json" for p in positionals]
        if name == "grassmann":
            base += ["--kn", "2", "5"]
        lines.append(base)
        for (flag,), options in arguments:
            if flag.startswith("-") and "/" not in flag and "action" not in options \
                    and "nargs" not in options:
                positive = options.get("type") is cl._positive
                values = options.get("choices") or ["3" if positive else "v.json"]
                lines += [base + [flag, value] for value in values]
                lines.append(base + [f"{flag}={values[-1]}"])
    return lines + [
        # options before, between and after positionals
        ["verify-qh", "--inverse", "w.json", "m.json", "--opposite", "s.json", "d.json"],
        ["verify-qh", "m.json", "--format", "text", "s.json", "d.json", "--no-opposite"],
        ["mutate", "--word", "0,1", "s.json", "--out", "o.json"],
        # the last of a repeated option wins
        ["explore", "s.json", "--max-nodes", "5", "--max-nodes=7", "--max-depth", "2"],
        ["gradings", "s.json", "--format", "text", "--format=json"],
        ["verify-qh", "m.json", "s.json", "d.json", "--opposite", "--no-opposite"],
        ["verify-qh", "m.json", "s.json", "d.json", "--no-opposite", "--opposite"],
        ["grassmann", "--all-checks", "--kn", "3", "6"],
        ["grassmann", "--kn", "2", "5", "--kn", "3", "7", "--all-checks", "--format", "text"],
        # negative numbers are values; a leading `-` after `--` is positional
        ["mutate", "s.json", "--word", "-1"],
        ["mutate", "s.json", "--word=-1,2"],
        ["mutate", "s.json", "--word", "-1, 2"],
        ["grassmann", "--kn", "-2", "5"],
        ["gradings", "--", "-s.json"],
        ["verify-qh", "m.json", "--", "-s.json", "-d.json"],
        ["mutate", "s.json", "--word", ""],
    ]


def line_id(argv):
    return " ".join(argv) or "empty"


@pytest.mark.parametrize("argv", accepted_lines(), ids=line_id)
def test_table_reads_lines_as_argparse_does(argv):
    run, name, options = cl._parse(argv)
    assert (name, options) == reference_reading(argv)
    assert run is cl._COMMANDS[name][0]


REJECTED = [
    [], ["bogus"], ["gradings", "s.json", "--bogus"], ["gradings", "s.json", "--form", "text"],
    ["mutate", "s.json", "--word"], ["orbit-eq", "a.json"], ["gradings", "a.json", "b.json"],
    ["explore", "s.json", "--max-nodes", "0"], ["explore", "s.json", "--max-nodes", "x"],
    ["explore", "s.json", "--max-depth", "-.5"],
    ["grassmann", "--kn", "2"], ["grassmann", "--kn", "2", "x"], ["grassmann", "--kn=2", "5"],
    ["gradings", "s.json", "--format", "xml"], ["grassmann", "--kn", "2", "5", "--all-checks=1"],
    ["mutate", "s.json", "--word", "--format"], ["mutate", "s.json", "--word", "-1,2"],
    ["gradings", "s.json", "--", "--format", "text"], ["--", "gradings", "s.json"],
    ["grassmann"], ["verify-qh", "m.json", "s.json", "d.json", "--opposite=1"],
    ["grassmann", "--kn", "1_0", "5"], ["grassmann", "--kn", "+3", "5"],
    ["explore", "s.json", "--max-nodes", "\u0663"],
]


@pytest.mark.parametrize("argv", REJECTED, ids=line_id)
def test_table_rejects_lines_as_argparse_does(runner, argv):
    assert reference_reading(argv) is None
    result = runner.invoke(cl.main, argv)
    assert result.exit_code == 2
    assert result.stderr.startswith("usage: clusterkit")
    assert "error: " in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["explore", "seed.json", "--max-nodes", "0"],
    ["gradings", "seed.json", "--format", "xml"], ["grassmann", "--kn", "2"],
    ["gradings", "seed.json", "--form", "text"],
], ids=["no-command", "unknown-command", "zero-max-nodes", "unknown-format", "one-kn",
        "abbreviated-option"])
def test_usage_errors_exit_2(runner, argv):
    result = runner.invoke(cl.main, argv)
    assert result.exit_code == 2
    assert "usage: clusterkit" in result.stderr
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", [None] + sorted(OPTIONS))
def test_help_names_every_option(runner, command):
    result = runner.invoke(cl.main, ["--help"] if command is None else [command, "--help"])
    assert result.exit_code == 0
    names = sorted(OPTIONS) if command is None else OPTIONS[command]
    for name in names:
        assert name in result.stdout


def test_closed_stdout_exits_1_quietly():
    child = subprocess.Popen([sys.executable, "-m", "clusterkit.cli", "surface"],
                             env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # closed before the child, still importing, writes its report
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == 1
    assert err == b""
