"""Command-line interface: exit codes, artifacts, determinism."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bubbletree import FamilySpec, cli, families, zero_neck_test
from bubbletree.cli import main
from bubbletree.errors import ConfigError, FamilyError, LadderError, NeckError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PLUMBING = str(CONFIGS / "plumbing.yaml")
# the pure-Python loader, and libyaml's where PyYAML was built with it
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])

BUBBLE_CFG = """
family:
  kind: bubble1
  schedule: [316.0, 3162.0, 10000.0]
out: {out}
"""

PLUMBING_CFG = """
family:
  kind: plumbing
  schedule: [1.0e-3, 1.0e-5, 1.0e-7, 1.0e-9]
  delta: 0.5
out: {out}
"""

CURVE_GRAPH = """\
v0 g=0 legs=1,2
v1 g=0 legs=3,4
e 0 1
"""

CURVE_CFG = """
curve:
  graph: graph.txt
  edge: 0
"""


def write_cfg(tmp_path, text, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


@pytest.fixture()
def bubble_cfg(tmp_path):
    out = tmp_path / "out"
    return write_cfg(tmp_path, BUBBLE_CFG.format(out=out)), out


def test_extract_writes_artifacts(bubble_cfg, capsys):
    cfg, out = bubble_cfg
    assert main(["extract", "--config", cfg]) == 0
    assert "wrote" in capsys.readouterr().out
    tree = json.loads((out / "tree.json").read_text())
    assert tree["schema"] == 1
    assert len(tree["config_hash"]) == 64
    assert tree["components"][0]["kind"] == "base"
    assert tree["components"][1]["energy"] == pytest.approx(
        4 * 3.141592653589793, rel=0.01
    )
    markings = (out / "markings.csv").read_text().strip().split("\n")
    assert markings[0].startswith("site_re,site_im,kind,member")
    assert len(markings) > 2
    assert (out / "theta_profile.csv").read_text() == "t,theta,alpha_slice\n"


@pytest.mark.parametrize("name", ["bubble1", "bubble2"])
def test_bubble_neck_scales_converge_along_the_subsequence(name, tmp_path):
    """For k z and k (z^2 - a^2) the neck scale of each bubble is c/k with
    one c for every k, so k |r - q| in markings.csv, the rescaling the
    bubble's domains converge under, must agree along the subsequence."""
    config = CONFIGS / f"{name}.yaml"
    schedule = yaml.safe_load(config.read_text(encoding="utf-8"))["family"]["schedule"]
    assert main(["extract", "--config", str(config), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "markings.csv").read_text(encoding="utf-8").splitlines()
    scales = {}
    for row in map(dict, (zip(lines[0].split(","), line.split(",")) for line in lines[1:])):
        q = complex(float(row["q_re"]), float(row["q_im"]))
        r = complex(float(row["r_re"]), float(row["r_im"]))
        k = schedule[int(row["member"])]
        scales.setdefault((row["site_re"], row["site_im"]), []).append(k * abs(r - q))
    assert len(scales) == (1 if name == "bubble1" else 2)
    for ks in scales.values():
        assert len(ks) == len(schedule)
        assert max(ks) - min(ks) <= 5e-3 * min(ks), ks


def test_extract_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = write_cfg(tmp_path, BUBBLE_CFG.format(out=out), f"{name}.yaml")
        assert main(["extract", "--config", cfg]) == 0
        outs.append(out)
    for artifact in ("tree.json", "markings.csv", "theta_profile.csv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


@pytest.mark.parametrize(
    "section", ["thresholds:\n  eps0: 0.5\n", "tolerances:\n  center_tol: 1.0e-5\n"]
)
def test_removed_config_section_is_config_error(tmp_path, capsys, section):
    # the extraction tolerances are constants of the driver
    cfg = write_cfg(tmp_path, BUBBLE_CFG.format(out=tmp_path / "x") + section)
    assert main(["extract", "--config", cfg]) == 2
    assert "unknown top-level keys" in capsys.readouterr().err


def test_tol_flag_is_refused(tmp_path):
    cfg = write_cfg(tmp_path, BUBBLE_CFG.format(out=tmp_path / "x"))
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--config", cfg, "--tol", "center_tol=2e-5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_load_config_reads_shipped_configs_and_refuses_overrides(path):
    assert isinstance(cli.load_config(path, []), cli.RunConfig)
    with pytest.raises(ConfigError, match="overrides are not supported"):
        cli.load_config(path, ["center_tol=2e-5"])


def test_missing_config_file(capsys):
    assert main(["extract", "--config", "/nonexistent/nope.yaml"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("given, want", [(None, "1"), ("2", "2")])
def test_main_defaults_openblas_threads_to_one_and_keeps_a_set_value(tmp_path, given, want):
    # a fresh interpreter, since OpenBLAS reads the variable when numpy loads
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = (
        "import os; from bubbletree.cli import main; "
        "main(['extract', '--config', 'nope.yaml']); print(os.environ['OPENBLAS_NUM_THREADS'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.stdout.split() == [want]


def test_unknown_family_kind(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "family:\n  kind: mystery\n  schedule: [1.0]\n")
    assert main(["extract", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "mystery" in err


def test_removed_family_knob_is_config_error(tmp_path, capsys):
    # the resolution is fixed in families; a config can no longer set it
    cfg = write_cfg(tmp_path, "family:\n  kind: plumbing\n  schedule: [1.0e-3]\n  n_t: 128\n")
    assert main(["extract", "--config", cfg]) == 2
    assert "unknown family options ['n_t']" in capsys.readouterr().err


def test_documented_family_knobs_are_the_spec_fields():
    documented = re.search(r"optional per-kind knobs: (.*)", cli.__doc__).group(1)
    knobs = [f.name for f in dataclasses.fields(FamilySpec) if f.name not in ("kind", "schedule")]
    assert documented.split(", ") == knobs


def test_documented_top_level_keys_are_the_accepted_keys(tmp_path):
    # the grammar's top-level keys are the lines indented by exactly four spaces
    documented = re.findall(r"^    (\w+):", cli.__doc__, re.MULTILINE)
    assert documented == list(cli._TOP_KEYS)
    cli.RunConfig(dict.fromkeys(documented), tmp_path)
    # a section's keys are the lines indented by six spaces under its name
    grammar = cli.__doc__.split("Config grammar")[1]
    sections = dict(re.findall(r"^    (\w+):.*\n((?:      .*\n)*)", grammar, re.MULTILINE))
    for name, keys in (
        ("ladder", cli._LADDER_KEYS),
        ("neck", cli._NECK_KEYS),
        ("curve", cli._CURVE_KEYS),
    ):
        assert re.findall(r"^      (\w+):", sections[name], re.MULTILINE) == list(keys), name


def test_seed_rejected_as_meaningless(tmp_path, capsys):
    # the pipeline samples nothing, so no config key seeds it
    cfg = write_cfg(
        tmp_path, BUBBLE_CFG.format(out=tmp_path / "x") + "seed: 7\n"
    )
    assert main(["extract", "--config", cfg]) == 2
    assert "unknown top-level keys: ['seed']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "neck"])
def test_ladder_delta0_refused_as_an_unknown_key(tmp_path, capsys, no_family, command):
    # the ladder starts at the family's chart radius, which no ladder key restates
    cfg = write_cfg(
        tmp_path, PLUMBING_CFG.format(out=tmp_path / "x") + "ladder: {delta0: 0.5}\n"
    )
    assert main([command, "--config", cfg]) == 2
    assert "unknown keys in 'ladder': ['delta0']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "depth, message",
    [(6.5, "ladder depth must be an integer"), ("true", "ladder depth must be a finite number")],
    ids=["fraction", "bool"],
)
def test_ladder_depth_not_an_integer_exits_2_before_any_family(
    tmp_path, capsys, no_family, depth, message
):
    cfg = write_cfg(
        tmp_path, BUBBLE_CFG.format(out=tmp_path / "x") + f"ladder:\n  depth: {depth}\n"
    )
    assert main(["extract", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("depth", [7, 7.0, 6.5, True, "7", math.inf, math.nan], ids=repr)
def test_load_takes_a_depth_exactly_when_the_ladder_does(tmp_path, depth):
    # one integer rule, errors.integer, also where no family builds a ladder
    from bubbletree import ScaleLadder

    try:
        want = ScaleLadder(1.0, 0.2, depth).depth
    except LadderError:
        with pytest.raises(ConfigError, match="ladder depth must be"):
            cli.RunConfig({"ladder": {"depth": depth}}, tmp_path)
    else:
        got = cli.RunConfig({"ladder": {"depth": depth}}, tmp_path).ladder["depth"]
        assert (type(got), got) == (int, want)


def test_integral_float_depth_loads_as_its_int(tmp_path):
    texts = [BUBBLE_CFG.format(out="x") + f"ladder: {{depth: {d}}}\n" for d in ("7.0", "7")]
    cfgs = [cli.load_config(Path(write_cfg(tmp_path, text))) for text in texts]
    assert [type(c.ladder["depth"]) for c in cfgs] == [int, int]
    assert cfgs[0].config_hash() == cfgs[1].config_hash()


@pytest.mark.parametrize(
    "ladder",
    ['eps_bar: "abc"', "eps_bar: true", "eps_bar: .inf", "depth: 1" + "0" * 400],
    ids=["string", "bool", "non_finite", "int_beyond_float_range"],
)
def test_ladder_value_not_a_finite_number_exits_2(tmp_path, capsys, ladder):
    cfg = write_cfg(tmp_path, BUBBLE_CFG.format(out=tmp_path / "x") + f"ladder:\n  {ladder}\n")
    assert main(["extract", "--config", cfg]) == 2
    assert "must be a finite number" in capsys.readouterr().err


@pytest.fixture()
def no_family(monkeypatch):
    """Fail any test that builds a family: a config error must come first."""

    def refuse(spec):
        raise AssertionError("a family was built for a refused config")

    monkeypatch.setattr(families, "make_family", refuse)


@pytest.mark.parametrize(
    "neck",
    ["eps: true", "eps: .inf", 'deltas: ["0.1", 0.05]', "deltas: [0.1, true]", "deltas: [.inf]"],
    ids=["bool_eps", "non_finite_eps", "string_delta", "bool_delta", "non_finite_delta"],
)
def test_neck_value_not_a_finite_number_exits_2(tmp_path, capsys, no_family, neck):
    cfg = write_cfg(tmp_path, PLUMBING_CFG.format(out=tmp_path / "x") + f"neck:\n  {neck}\n")
    assert main(["neck", "--config", cfg]) == 2
    assert "must be a finite number" in capsys.readouterr().err


BEYOND_FLOAT = "1" + "0" * 400  # a 401-digit int


@pytest.mark.parametrize(
    "knob",
    [
        f"schedule: [{BEYOND_FLOAT}]",
        f"schedule: [1.0e-3]\n  delta: {BEYOND_FLOAT}",
        f"schedule: [1.0e-3]\n  separation: {BEYOND_FLOAT}",
        f"schedule: [1.0e-3]\n  slopes: [{BEYOND_FLOAT}, 1]",
    ],
    ids=["schedule", "delta", "separation", "slopes"],
)
def test_family_value_beyond_float_range_exits_2(tmp_path, capsys, no_family, knob):
    cfg = write_cfg(tmp_path, f"family:\n  kind: torus_linear\n  {knob}\nout: {tmp_path / 'x'}\n")
    assert main(["extract", "--config", cfg]) == 2
    assert "must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, schedule, option",
    [
        ("bubble1", "[316.0]", "delta: 0.5"),
        ("bubble2", "[316.0]", "delta: 0.5"),
        ("plumbing", "[1.0e-3]", "separation: 0.5"),
        ("torus_linear", "[1.0e-2]", "separation: 0.5"),
        ("plumbing_bubble", "[1.0e-6]", "slopes: [1, 1]"),
    ],
)
def test_family_option_its_kind_does_not_read_exits_2(
    tmp_path, capsys, no_family, kind, schedule, option
):
    family = f"family:\n  kind: {kind}\n  schedule: {schedule}\n  {option}\n"
    cfg = write_cfg(tmp_path, family + f"out: {tmp_path / 'x'}\n")
    assert main(["extract", "--config", cfg]) == 2
    name = option.split(":")[0]
    assert f"family kind '{kind}' does not read options ['{name}']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "neck"])
@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_ladder_depth_below_6_exits_2_before_any_family(tmp_path, capsys, no_family, command, depth):
    cfg = write_cfg(
        tmp_path, PLUMBING_CFG.format(out=tmp_path / "x") + f"ladder:\n  depth: {depth}\n"
    )
    assert main([command, "--config", cfg]) == 2
    assert "depth must be >= 6" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [1074, 1080, 1100])
def test_ladder_underflowing_to_zero_exits_2_before_any_family(tmp_path, capsys, no_family, depth):
    # delta0 1 and eps_bar 0.2 put the finest tolerance 0.05 * 2^-depth below
    # the smallest subnormal from depth 1071 on, and the finest scale from 1075
    cfg = write_cfg(
        tmp_path, BUBBLE_CFG.format(out=tmp_path / "x") + f"ladder:\n  depth: {depth}\n"
    )
    assert main(["extract", "--config", cfg]) == 2
    assert f"depth {depth} underflows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, message",
    [
        (
            "kind: plumbing\n  schedule: [1.0e-5, 1.0e-3]",
            "pinch magnitudes must decrease strictly",
        ),
        (
            "kind: torus_linear\n  schedule: [1.0]",
            "delta 0.5 does not exceed sqrt(t) for the pinch t = 1",
        ),
        (
            "kind: plumbing_bubble\n  schedule: [1.0e-6, 0.25]\n  delta: 0.5",
            "delta 0.5 does not exceed sqrt(t) for the pinch t = 0.25",
        ),
        # the collar's inner radius |t|/delta squares below the normal floats,
        # where the field's m' = -t^(1/3)/x^2 overflows
        (
            "kind: plumbing_bubble\n  schedule: [1.0e-6, 1.0e-9, 1.0e-12, 1.0e-155]\n"
            "  delta: 0.5",
            "pinch t = 1e-155: the collar radii |t|/delta = 2e-155",
        ),
    ],
    ids=[
        "plumbing_increasing",
        "torus_wide_pinch",
        "plumbing_bubble_wide_pinch",
        "plumbing_bubble_unsampled_pinch",
    ],
)
@pytest.mark.parametrize("command", ["extract", "neck"])
def test_neck_family_schedule_refused_at_load(
    tmp_path, capsys, no_family, command, family, message
):
    cfg = write_cfg(tmp_path, f"family:\n  {family}\nout: {tmp_path / 'x'}\n")
    assert main([command, "--config", cfg]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "deltas, message",
    [
        ("[0.01, 0.1]", "neck deltas must be strictly decreasing"),
        ("[0.1, 0.1]", "neck deltas must be strictly decreasing"),
        ("[0.7]", "neck delta 0.7 exceeds the sampled chart 0.5"),
        # 1e-4 < sqrt(1e-7), the larger pinch of the schedule's late half
        ("[1.0e-4]", "neck delta 0.0001 does not exceed sqrt(t) for the pinch t = 1e-07"),
        ("[-0.1]", "neck deltas must be positive"),
        # above sqrt(1e-7) by less than a step of the 256-step t grid
        ("[3.2e-4]", "neck delta 0.00032 leaves a degenerate grid on the collar of pinch t = 1e-07"),
    ],
    ids=[
        "increasing",
        "repeated",
        "beyond_chart",
        "within_late_pinch",
        "negative",
        "within_a_grid_step",
    ],
)
@pytest.mark.parametrize("command", ["extract", "neck"])
def test_neck_deltas_refused_at_load(tmp_path, capsys, no_family, command, deltas, message):
    cfg = write_cfg(
        tmp_path, PLUMBING_CFG.format(out=tmp_path / "x") + f"neck:\n  deltas: {deltas}\n"
    )
    assert main([command, "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_neck_deltas_beyond_delta_are_not_read_on_a_bubble_family():
    # a bubble family's delta knob samples no neck, so it bounds no neck delta
    raw = yaml.safe_load(BUBBLE_CFG.format(out="x") + "neck:\n  deltas: [0.7, 0.6]\n")
    assert cli.RunConfig(raw, Path(".")).neck["deltas"] == (0.7, 0.6)


def test_neck_delta_inside_the_chart_slack_loads_as_it_runs(plumbing_family):
    # the chart bound allows a relative 1e-12 at load as at run time
    deltas = [0.5000000000001, 0.1]
    raw = yaml.safe_load(PLUMBING_CFG.format(out="x") + f"neck:\n  deltas: {deltas}\n")
    assert cli.RunConfig(raw, Path(".")).neck["deltas"] == tuple(deltas)
    fields = [m.field for m in plumbing_family.members]
    assert zero_neck_test(fields, 0.01, deltas).late_count == 2


@st.composite
def neck_configs(draw):
    """A valid neck family (chart delta D, pinches below D^2) and neck deltas
    drawn near sqrt(t) of its late members and near D, on both sides of each
    bound and of the 1e-12 chart slack."""
    kind = draw(st.sampled_from(["plumbing", "plumbing_bubble", "torus_linear"]))
    chart = draw(st.floats(0.05, 1.0))
    depths = draw(st.lists(st.floats(0.01, 12.0), min_size=1, max_size=4, unique=True))
    schedule = [chart * chart * 10.0 ** -e for e in sorted(depths)]
    late = schedule[-((len(schedule) + 1) // 2) :]
    near_root = st.builds(
        lambda t, x: math.sqrt(t) * math.exp(x),
        st.sampled_from(late),
        st.one_of(st.floats(-0.05, 0.3), st.sampled_from([-1e-15, 0.0, 1e-15, 1e-12])),
    )
    near_chart = st.builds(
        lambda u: chart * (1.0 + u),
        st.one_of(st.floats(-3e-12, 3e-12), st.sampled_from([-1e-12, 0.0, 1e-12, 2e-12])),
    )
    deltas = draw(st.lists(st.one_of(near_root, near_chart), min_size=1, max_size=4))
    family = {"kind": kind, "schedule": schedule, "delta": chart}
    return family, sorted(set(deltas), reverse=True)


@given(neck_configs())
@settings(max_examples=60, deadline=None)
def test_load_refuses_neck_deltas_exactly_when_the_zero_neck_test_does(config):
    family, deltas = config
    try:
        spec = FamilySpec.from_dict(family)
    except FamilyError:
        assume(False)
    raw = {"family": family, "neck": {"deltas": deltas, "eps": 0.01}}
    try:
        cli.RunConfig(raw, Path("."))
        loads = True
    except ConfigError:
        loads = False
    fields = [m.field for m in families.make_family(spec).members]
    try:
        zero_neck_test(fields, 0.01, deltas)
        runs = True
    except NeckError:
        runs = False
    assert loads == runs


def test_neck_rejects_measure_only_family(tmp_path, capsys, no_family):
    cfg = write_cfg(tmp_path, BUBBLE_CFG.format(out=tmp_path / "x"))
    assert main(["neck", "--config", cfg]) == 2
    assert "no cylinder fields" in capsys.readouterr().err


def test_neck_on_plumbing(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        f"""
family:
  kind: plumbing
  schedule: [1.0e-3, 1.0e-5, 1.0e-7, 1.0e-9]
  delta: 0.5
neck:
  deltas: [0.1, 0.01, 0.002]
  eps: 0.01
out: {out}
""",
    )
    assert main(["neck", "--config", cfg]) == 0
    assert "zero-neck PASS" in capsys.readouterr().out
    data = json.loads((out / "neck.json").read_text())
    assert data["zero_neck"]["passed"] is True
    assert len(data["members"]) == 4
    profile = (out / "theta_profile.csv").read_text()
    assert profile.startswith("t,theta,alpha_slice\n") and profile.count("\n") > 10


def test_runs_share_no_state(tmp_path):
    """Nothing one command computes leaks into the next one's reports."""

    def run(command, name):
        out = tmp_path / name
        assert main([command, "--config", PLUMBING, "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first_neck = run("neck", "neck1")
    first_extract = run("extract", "extract1")
    assert run("neck", "neck2") == first_neck
    assert run("extract", "extract2") == first_extract


def test_curve_query_stdout_contract(tmp_path, capsys):
    (tmp_path / "graph.txt").write_text(CURVE_GRAPH, encoding="utf-8")
    cfg = write_cfg(tmp_path, CURVE_CFG + f"out: {tmp_path / 'out'}\n")
    assert main(["curve", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "vertices: 2" in out
    assert "stable: true" in out
    assert "edge 0: regular: true, witness: forget mark 4" in out
    data = json.loads((tmp_path / "out" / "curve.json").read_text())
    assert data["query"]["witness"] == [4]


@pytest.mark.parametrize(
    "graph, message",
    [
        ("v0 g=x legs=1,2,3\n", "unparseable integer 'x'"),
        ("v0 g=1 legs=1\ne 0 one\n", "unparseable integer 'one'"),
        (
            "v0 g=0 legs=1\nv1 g=0 legs=2,3,4\ne 0 1\n",
            "node regularity needs a stable curve",
        ),
        ("v0 g=0 legs=1,2\nv1 g=0 legs=3,4\ne 0 x\n", "unparseable integer 'x'"),
    ],
)
def test_curve_bad_graph_exits_2(tmp_path, capsys, graph, message):
    (tmp_path / "graph.txt").write_text(graph, encoding="utf-8")
    cfg = write_cfg(tmp_path, CURVE_CFG + f"out: {tmp_path / 'out'}\n")
    assert main(["curve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error (curve): ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edge", [5, -1, 1])
def test_curve_edge_query_without_that_node_exits_2(tmp_path, capsys, edge):
    (tmp_path / "graph.txt").write_text(CURVE_GRAPH, encoding="utf-8")
    cfg = write_cfg(
        tmp_path, CURVE_CFG.replace("edge: 0", f"edge: {edge}") + f"out: {tmp_path / 'out'}\n"
    )
    assert main(["curve", "--config", cfg]) == 2
    assert f"no node with index {edge}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "neck", "curve"])
def test_out_dir_that_cannot_be_created_exits_2(tmp_path, capsys, command):
    # the out directory would sit under a regular file
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "sub"
    (tmp_path / "graph.txt").write_text(CURVE_GRAPH, encoding="utf-8")
    text = CURVE_CFG if command == "curve" else PLUMBING_CFG.format(out=tmp_path / "unused")
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error ({command}): cannot write reports to {out}: ")
    assert not out.exists() and not (tmp_path / "unused").exists()


def test_selftest_passes_and_rejects_flags(capsys):
    assert main(["selftest", "--config", "x.yaml"]) == 2
    capsys.readouterr()
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "all checks passed" in out


def test_selftest_fails_on_a_field_built_with_a_wrong_derivative(monkeypatch, capsys):
    # x^(d-1) in place of d x^(d-1): the one stored squared-speed array keeps
    # the Pohozaev residual at 0, and only the finite differences of the
    # points see the speeds off by the factor d^2 (d = 2, 3)
    from bubbletree import neck as neck_module

    build = neck_module.cylinder_field_from_sphere_chart

    def wrong(m, m_prime, *args, **kwargs):
        return build(m, lambda x: m(x) / x, *args, **kwargs)

    monkeypatch.setattr(neck_module, "cylinder_field_from_sphere_chart", wrong)
    assert main(["selftest"]) == 3
    lines = capsys.readouterr().out.splitlines()
    (line,) = [l for l in lines if "pohozaev residual" in l]
    assert line.startswith("FAIL  pohozaev residual: max residual 0.000e+00")
    assert sum(l.startswith("PASS") for l in lines) == 4
    assert lines[-1] == "selftest: 1 check(s) failed"


def test_config_loader_is_libyaml_when_built():
    want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert cli._YAML_LOADER is want


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_every_loader_reads_the_shipped_configs_alike(path):
    text = path.read_text(encoding="utf-8")
    # repr also tells 1 from 1.0 and a list from a tuple
    assert len({repr(yaml.load(text, Loader=loader)) for loader in LOADERS}) == 1


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_malformed_yaml_exits_2(tmp_path, capsys, monkeypatch, loader):
    monkeypatch.setattr(cli, "_YAML_LOADER", loader)
    cfg = write_cfg(tmp_path, "family: [bubble1\n  schedule: {1.0\n")
    assert main(["extract", "--config", cfg]) == 2
    assert "config does not parse as YAML" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    # int() refuses more than sys.get_int_max_str_digits() digits, and
    # datetime.date refuses month 13
    ["ladder:\n  depth: 1" + "0" * sys.get_int_max_str_digits() + "\n", "seed: 2020-13-01\n"],
    ids=["int_past_digit_limit", "bad_date"],
)
@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_scalar_the_constructor_refuses_exits_2(tmp_path, capsys, monkeypatch, loader, text):
    monkeypatch.setattr(cli, "_YAML_LOADER", loader)
    cfg = write_cfg(tmp_path, BUBBLE_CFG.format(out=tmp_path / "x") + text)
    assert main(["extract", "--config", cfg]) == 2
    assert "config does not parse as YAML" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "neck", "curve"])
def test_config_that_is_not_utf8_exits_2(tmp_path, capsys, no_family, command):
    cfg = tmp_path / "run.yaml"
    cfg.write_bytes(b"out: x\n\xff\xfe\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_graph_that_is_not_utf8_exits_2(tmp_path, capsys):
    (tmp_path / "graph.txt").write_bytes(b"\xff\xfe\n")
    cfg = write_cfg(tmp_path, CURVE_CFG + f"out: {tmp_path / 'out'}\n")
    assert main(["curve", "--config", cfg]) == 2
    assert "config error (curve): cannot read graph" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@given(st.binary(), st.sampled_from(["extract", "neck", "curve"]))
@settings(max_examples=100, deadline=None)
def test_any_config_bytes_keep_the_exit_code_contract(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.yaml"
        cfg.write_bytes(data)
        assert main([command, "--config", str(cfg)]) in (0, 2, 3)


@pytest.mark.parametrize("command", ["extract", "neck"])
def test_plumbing_pinch_whose_map_is_refused_exits_2_at_load(tmp_path, capsys, no_family, command):
    # the zeros +-i sqrt(t) of x + t/x sit within 1e-12 of its pole at 0
    cfg = write_cfg(
        tmp_path, PLUMBING_CFG.replace("1.0e-9]", "1.0e-24]").format(out=tmp_path / "x")
    )
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "pinch t = 1e-24: numerator and denominator share a root" in err


def test_plumbing_bubble_pinch_of_1e_150_loads_and_extracts(tmp_path):
    # |t|/delta = 2e-150 is inside the collar rule's range
    family = "kind: plumbing_bubble\n  schedule: [1.0e-144, 1.0e-146, 1.0e-148, 1.0e-150]"
    cfg = write_cfg(tmp_path, f"family:\n  {family}\n  delta: 0.5\nout: {tmp_path / 'x'}\n")
    # (1 + |m|^2)^2 overflows where |m| > 1e77, so squared speeds below about
    # 4e-154 round to 0; numpy warns, and this suite turns warnings into errors
    with np.errstate(over="ignore"):
        assert main(["extract", "--config", cfg]) == 0
    tree = json.loads((tmp_path / "x" / "tree.json").read_text())
    assert [c["kind"] for c in tree["components"]] == ["base", "bubble"]
    # 256 rows over a collar of half-length 172 sample the bubble coarsely
    assert tree["components"][1]["energy"] == pytest.approx(4.0 * math.pi, rel=0.02)


@pytest.mark.parametrize("family", ["bubble1", "[[1]]", "5"], ids=["string", "list", "int"])
def test_family_section_that_is_not_a_mapping_exits_2(tmp_path, capsys, no_family, family):
    cfg = write_cfg(tmp_path, f"family: {family}\nout: {tmp_path / 'x'}\n")
    assert main(["extract", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: family section invalid: family spec must be a mapping")


@pytest.mark.parametrize(
    "family",
    ["kind: bubble1\n  schedule: [316.0]", "kind: plumbing\n  schedule: [1.0e-3]\n  delta: 0.5"],
    ids=["bubble1", "plumbing"],
)
def test_extract_on_a_one_member_schedule_exits_2(tmp_path, capsys, no_family, family):
    cfg = write_cfg(tmp_path, f"family:\n  {family}\nout: {tmp_path / 'x'}\n")
    assert main(["extract", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error (extract): extract needs at least 2 family members")
    assert not (tmp_path / "x").exists()


DEEP = "[" * 3000 + "]" * 3000  # a list nested 3,000 deep
DEEP_CONFIGS = {
    "family_schedule": f"family:\n  kind: bubble1\n  schedule: {DEEP}\n",
    "neck_deltas": f"neck:\n  deltas:\n    a: {DEEP}\n",
    "family_slopes": (
        f"family:\n  kind: torus_linear\n  schedule: [1.0e-4]\n  slopes: [{DEEP}, 1, 2]\n"
    ),
    "curve_graph": f"curve:\n  graph: {DEEP}\n",
}


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="the Python parser recurses per level")
@pytest.mark.parametrize(
    "name, message",
    [
        ("family_schedule", "family section invalid: schedule entry must be a finite number"),
        ("neck_deltas", "neck deltas must be a list, got {'a': [[[[[[...]]]]]]}"),
        ("family_slopes", "family section invalid: slopes must be a pair of numbers"),
        ("curve_graph", "curve graph must be a path string"),
    ],
)
def test_deeply_nested_value_exits_2(tmp_path, capsys, monkeypatch, no_family, name, message):
    monkeypatch.setattr(cli, "_YAML_LOADER", yaml.CSafeLoader)
    cfg = write_cfg(tmp_path, DEEP_CONFIGS[name] + f"out: {tmp_path / 'x'}\n")
    assert main(["extract", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_nesting_past_the_python_parser_recursion_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
    cfg = write_cfg(tmp_path, DEEP_CONFIGS["neck_deltas"])
    assert main(["extract", "--config", cfg]) == 2
    assert "config does not parse as YAML" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, message",
    [
        (
            "kind: bubble1\n  schedule: {316.0: a, 3162.0: b, 10000.0: c}",
            "schedule must be a list, got {316.0: 'a', 3162.0: 'b', 10000.0: 'c'}",
        ),
        (
            "kind: torus_linear\n  schedule: [1.0e-2, 1.0e-4]\n  slopes: {2.0: x, 1.0: y}",
            "slopes must be a list, got {1.0: 'y', 2.0: 'x'}",  # reprlib sorts keys
        ),
    ],
    ids=["schedule", "slopes"],
)
def test_family_list_given_as_a_mapping_exits_2(tmp_path, capsys, no_family, family, message):
    # a mapping iterates as its keys, which once loaded as the list
    cfg = write_cfg(tmp_path, f"family:\n  {family}\nout: {tmp_path / 'x'}\n")
    assert main(["extract", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: family section invalid: {message}")
    assert not (tmp_path / "x").exists()


def nested_config(depth):
    """A config whose value nests ``depth`` levels deep, the root mapping included."""
    return "neck:\n  deltas:\n    a: " + "[" * (depth - 3) + "]" * (depth - 3) + "\n"


def test_nesting_that_crashed_libyaml_exits_2(tmp_path):
    # 200,000 levels overflowed the C stack of libyaml's composer (exit 139);
    # a fresh interpreter, so that a crash fails this test and not the run
    cfg = write_cfg(tmp_path, nested_config(200_000))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "bubbletree", "extract", "--config", cfg],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error: config nests deeper than {cli._MAX_DEPTH} levels")


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_nesting_is_refused_from_one_level_past_the_limit(tmp_path, capsys, monkeypatch, loader):
    monkeypatch.setattr(cli, "_YAML_LOADER", loader)
    refused = f"config error: config nests deeper than {cli._MAX_DEPTH} levels"
    cfg = write_cfg(tmp_path, nested_config(cli._MAX_DEPTH + 1))
    assert main(["extract", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(refused)
    cfg = write_cfg(tmp_path, nested_config(cli._MAX_DEPTH))
    assert main(["extract", "--config", cfg]) == 2
    assert not capsys.readouterr().err.startswith(refused)


@pytest.mark.parametrize(
    "text, message",
    [
        ('curve:\n  graph: "a\\0b"\n', "curve graph must be a path string"),
        ("curve:\n  graph: 5\n", "curve graph must be a path string"),
        ('out: "a\\0b"\n', "out must be a path string"),
        ("ladder:\n  1: 2\n  a: 3\n", "unknown keys in 'ladder': [1, 'a']"),
        ("1: 2\na: 3\n", "unknown top-level keys: [1, 'a']"),
        ("family:\n  kind: bubble1\n  1: 2\n  a: 3\n", "unknown family options [1, 'a']"),
    ],
    ids=["graph_nul", "graph_int", "out_nul", "ladder_keys", "top_keys", "family_keys"],
)
def test_path_with_nul_or_keys_of_mixed_types_exit_2(tmp_path, capsys, no_family, text, message):
    cfg = write_cfg(tmp_path, text)
    assert main(["curve", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_SCALARS, inner, max_size=3),
    max_leaves=8,
)
# numbers and number lists reach the rules past the type checks
_KNOB = _VALUES | st.floats() | st.lists(st.floats(), min_size=1, max_size=4)
_SECTION_KEYS = {
    "family": ("kind", "schedule", "delta", "separation", "slopes"),
    "ladder": tuple(cli._LADDER_KEYS),
    "neck": tuple(cli._NECK_KEYS),
    "curve": tuple(cli._CURVE_KEYS),
}
_KINDS = st.sampled_from(["bubble1", "bubble2", "plumbing", "plumbing_bubble", "torus_linear"])


@st.composite
def yaml_configs(draw):
    """YAML text of a config whose every section is absent, any value, or a
    mapping of some of its keys to any values (a family kind is often a real
    one); ``out`` is absent or any value."""
    raw = {}
    for name, keys in _SECTION_KEYS.items():
        shape = draw(st.sampled_from(["absent", "value", "keys"]))
        if shape == "value":
            raw[name] = draw(_VALUES)
        elif shape == "keys":
            chosen = draw(st.lists(st.sampled_from(keys), unique=True))
            raw[name] = {k: draw(_KINDS | _VALUES if k == "kind" else _KNOB) for k in chosen}
    if draw(st.booleans()):
        raw["out"] = draw(_VALUES)
    return yaml.safe_dump(raw, sort_keys=False)


@given(yaml_configs())
@example(DEEP_CONFIGS["neck_deltas"])
# delta / sqrt(t) past the float range, and underflowing to 0
@example("family: {kind: plumbing, schedule: [1.0e-300], delta: 1.0e+308}\n")
@example("family: {kind: torus_linear, schedule: [1.0e+300], delta: 5.0e-324}\n")
@settings(max_examples=300, deadline=None)
def test_load_config_refuses_any_value_with_config_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.yaml"
        path.write_text(text, encoding="utf-8")
        try:
            cli.load_config(path)
        except ConfigError:
            pass
