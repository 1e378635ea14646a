import argparse
import contextlib
import decimal
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import mpmath
import pytest

from entrokit import cli
from entrokit.cli import dispatch

from oracles import interval_contains, mahler_reference

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parents[1] / "src"

GOLDEN_CASES = {
    "mahler_lehmer": ["mahler", "--poly", str(DATA / "lehmer.json")],
    "set_entropy_two_rays": ["set-entropy", "--map", str(DATA / "two_rays.json")],
    "yuzvinski_fib_zn": ["yuzvinski", "--matrix", str(DATA / "fib.json"), "--domain", "zn"],
    "padic_5_2_25": ["padic", "--p", "5", "--xi", "2/25"],
    "topological_diag_rn": ["topological", "--matrix", "2,0;0,1/2", "--domain", "rn"],
    "adjoint_fib": ["adjoint", "--matrix", str(DATA / "fib.json"),
                    "--lattice", str(DATA / "lattice_z_2z.json")],
    "adjoint_probe_two": ["adjoint-probe", "--matrix", "2", "--max-index", "6"],
    "growth_free2": ["growth", "--family", "free:2", "--horizon", "8"],
    "cotrajectory_left_shift": ["cotrajectory", "--map", str(DATA / "left_shift.json"),
                                "--set", "S:0", "--horizon", "8"],
    "shift_left_sum_oracle": ["shift", "--map", str(DATA / "left_shift.json"),
                              "--order", "2", "--variant", "sum",
                              "--oracle", "S:0", "--horizon", "6"],
    "oracle_fib": ["oracle", "--matrix", str(DATA / "fib.json"),
                   "--set", str(DATA / "unit_f.json"), "--horizon", "14"],
    "espectrum_2_1": ["espectrum", "--dim", "2", "--bound", "1"],
    "lehmer_deg4": ["lehmer", "--max-degree", "4", "--top", "3"],
}


def run_json(capsys, argv):
    code = dispatch(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def canonical(report):
    report = dict(report)
    report.pop("timing_ms", None)
    # golden inputs were recorded with repo-relative paths; normalize both
    inputs = dict(report.get("inputs", {}))
    for key, value in list(inputs.items()):
        if isinstance(value, str) and value.endswith(".json"):
            inputs[key] = pathlib.Path(value).name
    report["inputs"] = inputs
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(capsys, name):
    code, report = run_json(capsys, GOLDEN_CASES[name])
    assert code == 0
    golden = json.loads((DATA / "golden" / f"{name}.json").read_text())
    assert canonical(report) == canonical(golden)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_every_accepted_option_is_read(capsys, name):
    # a parsed option that the handler never reads would only be echoed
    read = set()

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, attr):
            read.add(attr)
            return super().__getattribute__(attr)

    args = cli.build_parser().parse_args(GOLDEN_CASES[name], namespace=RecordingNamespace())
    read.clear()
    args.handler(args)
    capsys.readouterr()
    assert set(vars(args)) - read - {"handler", "subcommand", "json"} == set()


@pytest.mark.parametrize("argv", [
    ["--json", "padic", "--p", "3", "--xi", "1/9"],
    ["set-entropy", "--map", str(DATA / "two_rays.json"), "--tol", "1e-3"],
    ["mahler", "--poly", "1,1", "--budget", "10"],
    ["lehmer", "--max-degree", "3", "--tol", "1e-30"],
    ["growth", "--family", "free:2", "--gens", "standard"],
])
def test_removed_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        dispatch(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("entrokit ")]
    assert len(lines) == 13
    for argv in lines:
        cli.build_parser().parse_args(argv[1:])


def test_human_and_json_share_payload(capsys):
    code = dispatch(["padic", "--p", "3", "--xi", "1/9"])
    human = capsys.readouterr().out
    assert code == 0
    code, report = run_json(capsys, ["padic", "--p", "3", "--xi", "1/9"])
    assert report["result"]["value"] == {"kind": "exact_log", "base": 3,
                                         "multiplier": "2/1"}
    assert "2*log 3" in human


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_lines_are_formatted_only_when_printed(capsys, monkeypatch, name):
    parser = cli.build_parser()
    parse_args = parser.parse_args
    built = []

    def recording_parse_args(argv):
        args = parse_args(argv)
        handler = args.handler

        def recording_handler(args):
            payload, lines = handler(args)

            def recording_lines():
                built.append(list(lines()))
                return built[-1]
            return payload, recording_lines
        args.handler = recording_handler
        return args

    monkeypatch.setattr(parser, "parse_args", recording_parse_args)
    assert dispatch(GOLDEN_CASES[name] + ["--json"]) == 0
    assert built == []
    capsys.readouterr()
    assert dispatch(GOLDEN_CASES[name]) == 0
    assert len(built) == 1
    assert capsys.readouterr().out == "".join(line + "\n" for line in built[0])


def test_padic_zero_scalar(capsys):
    # the zero map has entropy log max(1, |0|_p) = 0
    code, report = run_json(capsys, ["padic", "--p", "5", "--xi", "0"])
    assert code == 0
    assert report["result"]["value"] == {"kind": "exact_zero"}
    assert dispatch(["padic", "--p", "5", "--xi", "0"]) == 0
    assert capsys.readouterr().out == "algebraic entropy of x -> (0)*x on Q_5: 0 (exact)\n"


def test_exit_code_invalid_input(capsys):
    assert dispatch(["mahler", "--poly", "0"]) == 2
    assert dispatch(["set-entropy", "--map", str(DATA / "fib.json")]) == 2
    assert dispatch(["adjoint", "--matrix", "0", "--lattice", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["mahler", "--poly", "1/0,1"],
    ["padic", "--p", "5", "--xi", "1/0"],
    ["yuzvinski", "--matrix", "1/0,1;0,1"],
    ["mahler", "--poly", "missing.json"],
])
def test_exit_code_zero_denominator_or_missing_file(capsys, argv):
    assert dispatch(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_inline_value_longer_than_a_file_name(capsys):
    # 200 terms make a 399-character argument, longer than NAME_MAX
    code, report = run_json(capsys, ["mahler", "--poly", ",".join(["1"] * 200)])
    assert code == 0
    assert report["result"]["value"]["kind"] == "exact_zero"


def test_coefficient_beyond_double_range(capsys):
    # a linear factor is peeled exactly, whatever the size of its root
    code, report = run_json(capsys, ["mahler", "--poly", "1e400,1"])
    assert code == 0
    assert report["result"]["value"] == {"kind": "exact_log", "base": 10 ** 400,
                                         "multiplier": "1/1"}
    # roots +-1e200 i go to mpmath and certify relative to their modulus
    code, report = run_json(capsys, ["mahler", "--poly", "1e400,0,1"])
    assert code == 0
    with mpmath.workdps(100):
        assert interval_contains(report["result"]["value"], 400 * mpmath.log(10))


@pytest.mark.parametrize("argv", [
    ["set-entropy", "--map"],
    ["cotrajectory", "--set", "z", "--horizon", "3", "--map"],
])
@pytest.mark.parametrize("bad_map", [
    {"core": {"z": "z"}, "out_rays": [], "in_strings": [{"attach": "z"}], "in_trees": []},
    {"core": {"z": "z"}, "in_trees": [{"id": "x"}]},
    {"core": {"z": "z"}, "in_strings": 5},
    {"core": 5},
    {"core": {"z": "z"}, "in_trees": [{"id": "T", "attach": "z", "branching": None}]},
    {"core": {"z": "z"}, "in_trees": [{"id": "T", "attach": "z", "branching": 2.5}]},
    {"core": {"z": "z"}, "out_rays": [["R"]]},
])
def test_exit_code_malformed_self_map(capsys, tmp_path, argv, bad_map):
    path = tmp_path / "bad_map.json"
    path.write_text(json.dumps(bad_map))
    assert dispatch(argv + [str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("budget, code", [(624, 3), (625, 0)])
def test_espectrum_budget(capsys, budget, code):
    # the 2 x 2 box with entries in -2..2 holds 5**4 = 625 matrices
    assert dispatch(["espectrum", "--dim", "2", "--bound", "2",
                     "--budget", str(budget)]) == code
    assert ("exceeded budget of 624" in capsys.readouterr().err) == (code == 3)


def test_exit_code_budget(capsys):
    code = dispatch(["oracle", "--matrix", "2", "--set", "0;1",
                     "--horizon", "40", "--budget", "100"])
    assert code == 3
    capsys.readouterr()


def test_sumset_oracle_budget_is_exact(capsys):
    # F = {0..299} on Z: the sumset F + F holds 599 points
    argv = ["oracle", "--matrix", "1", "--set", ";".join(map(str, range(300))),
            "--horizon", "2", "--json", "--budget"]
    assert dispatch(argv + ["599"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["sizes"] == [300, 599]
    assert dispatch(argv + ["598"]) == 3
    assert "sumset enumeration exceeded budget of 598" in capsys.readouterr().err


def test_shift_oracle_budget(capsys, tmp_path):
    # a core 2-cycle with a ternary tree: the oracle's carrier grows fast
    path = tmp_path / "tree3.json"
    path.write_text(json.dumps({"core": {"a": "b", "b": "a", "c": "a"},
                                "in_strings": [{"id": "S", "attach": "c"}],
                                "in_trees": [{"id": "T", "attach": "a", "branching": 3}]}))
    argv = ["shift", "--map", str(path), "--order", "2", "--variant", "sum",
            "--oracle", "a", "--horizon", "10"]
    assert dispatch(argv + ["--budget", "10"]) == 3
    assert "exceeded budget of 10" in capsys.readouterr().err
    assert dispatch(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("oracle, horizon", [("z", 3_000_000), ("S:0", 40_000)])
def test_shift_oracle_budget_counts_size_digits(capsys, oracle, horizon):
    # the ranks on the left shift grow by one a step, so the sizes 2**1 ..
    # 2**n hold n(n + 1)/2 digits: over the default budget from n = 3,162
    argv = ["shift", "--map", str(DATA / "left_shift.json"), "--order", "2",
            "--variant", "sum", "--oracle", oracle, "--horizon", str(horizon)]
    assert dispatch(argv) == 3
    assert "oracle enumeration exceeded budget of 5000000" in capsys.readouterr().err


def test_shift_oracle_prints_sizes_past_the_int_digit_cap(capsys, tmp_path):
    # 500 strings on a fixed point: rank 500n, and 2**15000 at horizon 30 has
    # 4,516 digits, past CPython's default 4,300 for one int-to-str conversion
    path = tmp_path / "strings500.json"
    path.write_text(json.dumps({"core": {"z": "z"}, "in_strings": [
        {"id": f"S{i}", "attach": "z"} for i in range(500)]}))
    argv = ["shift", "--map", str(path), "--order", "2", "--variant", "sum",
            "--oracle", ",".join(f"S{i}:0" for i in range(500)), "--horizon", "30"]
    expected = format(decimal.Context(prec=5000).power(2, 15000), "f")
    assert len(expected) == 4516
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, report = run_json(capsys, argv)
    assert code == 0
    assert report["result"]["oracle_sizes"][-1] == expected
    assert report["result"]["oracle_ranks"][-1] == 15000
    assert dispatch(argv) == 0
    assert capsys.readouterr().out.count(expected + "]") == 1
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


# a core 2-cycle fed by a ternary tree and, through a third node, a string
TREE3 = {"core": {"a": "b", "b": "a", "c": "a"},
         "in_strings": [{"id": "S", "attach": "c"}],
         "in_trees": [{"id": "T", "attach": "a", "branching": 3}]}


def _tree3_sizes(horizon: int) -> list:
    """The union sizes from E = {a} on TREE3, the whole map being its core:
    a; then b, c and the 3 depth-1 tree points; then each step n >= 3 adds
    the string point S:n-3 and the 3**(n-1) tree points of depth n-1."""
    return [1] + [n + 4 + (3 ** n - 9) // 2 for n in range(2, horizon + 1)]


def _tree3_argv(tmp_path, command, horizon):
    path = tmp_path / "tree3.json"
    path.write_text(json.dumps(TREE3))
    if command == "cotrajectory":
        return ["cotrajectory", "--map", str(path), "--set", "a",
                "--horizon", str(horizon)]
    return ["shift", "--map", str(path), "--order", "2", "--variant", "sum",
            "--oracle", "a", "--horizon", str(horizon)]


def test_cotrajectory_long_horizon_matches_closed_form(capsys, tmp_path):
    code, report = run_json(capsys, _tree3_argv(tmp_path, "cotrajectory", 1000))
    assert code == 0
    result = report["result"]
    assert result["naive_sizes"] == result["reduced_sizes"] == _tree3_sizes(1000)
    assert result["limit"] == "infinity"


# runs dispatch on its argv and prints the peak resident set of its own
# address space, in kB: ru_maxrss would count the parent's peak, which a
# child keeps across fork and exec on Linux
_PEAK_RSS_CHILD = """\
import sys
from entrokit.cli import dispatch
code = dispatch(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")),
          file=sys.stderr)
sys.exit(code)
"""


_CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def _peak_rss_child(argv):
    """Runs dispatch(argv) in a child process, which prints its VmHWM in kB
    on stderr."""
    return subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
                          capture_output=True, text=True, env=_CHILD_ENV, timeout=60)


@pytest.mark.skipif(not pathlib.Path("/proc/self/status").exists(),
                    reason="reads the peak resident set from /proc")
def test_shift_oracle_long_horizon_is_fast_and_small(tmp_path):
    # the level of a is two ranges a step, however many points they hold
    child = _peak_rss_child(_tree3_argv(tmp_path, "shift", 1000) + ["--json"])
    assert child.returncode == 0
    report = json.loads(child.stdout)
    assert report["result"]["oracle_ranks"] == list(range(1, 1001))
    assert report["timing_ms"] < 1000
    assert int(child.stderr) < 100 * 1024


def test_cotrajectory_prints_sizes_past_the_int_digit_cap(capsys, tmp_path):
    # at horizon 10,000 the union holds about 3**10000 / 2 points, 4,771
    # digits, past CPython's default 4,300 for one int-to-str conversion;
    # the budget holds the 2 pieces a step and the ~48 million digits
    argv = _tree3_argv(tmp_path, "cotrajectory", 10_000) + ["--budget", "100000000"]
    n = 10_000
    context = decimal.Context(prec=6000)
    last = context.add(context.divide(context.subtract(context.power(3, n), 9), 2), n + 4)
    expected = format(last, "f")
    assert len(expected) == 4771
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert dispatch(argv + ["--json"]) == 0
    result = json.loads(capsys.readouterr().out, parse_int=str)["result"]
    assert result["naive_sizes"][-1] == result["reduced_sizes"][-1] == expected
    assert len(result["naive_sizes"]) == n
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


@pytest.mark.parametrize("argv", [
    ["cotrajectory", "--map", str(DATA / "left_shift.json"), "--horizon", "3", "--set"],
    ["shift", "--map", str(DATA / "left_shift.json"), "--order", "2", "--variant", "sum",
     "--oracle"],
])
@pytest.mark.parametrize("nodes", [[1], [None]])
def test_exit_code_non_string_node(capsys, tmp_path, argv, nodes):
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps({"nodes": nodes}))
    assert dispatch(argv + [str(path)]) == 2
    assert "must be a string" in capsys.readouterr().err


def test_shift_empty_oracle_is_an_input_error(capsys):
    # an empty --oracle names no node; it neither skips the oracle nor
    # reads the current directory
    argv = ["shift", "--map", str(DATA / "left_shift.json"), "--order", "2",
            "--variant", "sum", "--oracle", "", "--json"]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Is a directory" not in captured.err


@pytest.mark.parametrize("argv", [
    ["mahler", "--poly", ""],
    ["cotrajectory", "--map", str(DATA / "left_shift.json"), "--set", ""],
])
def test_empty_argument_is_inline_text(capsys, argv):
    assert dispatch(argv) == 2
    assert "Is a directory" not in capsys.readouterr().err


def test_cotrajectory_of_an_empty_node_list(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"nodes": []}))
    code, report = run_json(capsys, ["cotrajectory", "--map", str(DATA / "left_shift.json"),
                                     "--set", str(path), "--horizon", "3"])
    assert code == 0
    assert report["result"] == {"reduced_sizes": [0, 0, 0], "naive_sizes": [0, 0, 0],
                                "limit": 0}


def test_shift_echoes_horizon_and_budget_only_with_the_oracle(capsys):
    argv = ["shift", "--map", str(DATA / "left_shift.json"), "--order", "2",
            "--variant", "sum", "--horizon", "5"]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert "horizon" not in report["inputs"] and "budget" not in report["inputs"]
    code, report = run_json(capsys, argv + ["--oracle", "S:0"])
    assert code == 0
    assert (report["inputs"]["horizon"], report["inputs"]["budget"]) == (5, 5_000_000)


@pytest.mark.skipif(not pathlib.Path("/proc/self/status").exists(),
                    reason="reads the peak resident set from /proc")
def test_coordinate_adjoint_of_a_far_ray_point_is_fast_and_small(tmp_path):
    # the adjoint value counts the rays the orbits of F reach, so a ray
    # offset of 10**8 costs what offset 0 costs, and no budget is needed
    path = tmp_path / "fed_ray.json"
    path.write_text(json.dumps({"core": {"a": "ray:R", "b": "a"}, "out_rays": ["R"],
                                "in_strings": [{"id": "S", "attach": "b"}]}))
    child = _peak_rss_child(["shift", "--map", str(path), "--order", "2",
                             "--variant", "sum", "--oracle", "R:100000000",
                             "--budget", "1000000", "--json"])
    assert child.returncode == 0
    report = json.loads(child.stdout)
    assert report["result"]["coordinate_adjoint"] == \
        {"kind": "exact_log", "base": 2, "multiplier": "1/1"}
    assert report["timing_ms"] < 1000
    assert int(child.stderr) < 100 * 1024


@pytest.mark.parametrize("form", [["--json"], []])
def test_a_closed_pipe_exits_0_without_a_traceback(tmp_path, form):
    # the report runs to about 2 MB, past any pipe buffer, so the child is
    # still writing when the reader takes a few bytes and closes the pipe
    argv = _tree3_argv(tmp_path, "cotrajectory", 2000) + ["--budget", "100000000"]
    child = subprocess.Popen([sys.executable, "-m", "entrokit.cli", *argv, *form],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=_CHILD_ENV)
    assert child.stdout.read(10)
    child.stdout.close()
    stderr = child.stderr.read().decode()
    assert child.wait(timeout=60) == 0
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


@pytest.mark.parametrize("argv", [
    ["adjoint", "--matrix", "2", "--lattice", "3", "--horizon", "0"],
    ["adjoint", "--matrix", "2", "--lattice", "3", "--horizon", "-1"],
    ["adjoint-probe", "--matrix", "2", "--max-index", "0"],
    ["adjoint-probe", "--matrix", "2", "--max-index", "-3"],
])
def test_adjoint_options_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        dispatch(argv)
    assert exit_info.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("top", ["-1", "0", "x"])
def test_lehmer_top_must_be_positive(capsys, top):
    with pytest.raises(SystemExit) as exit_info:
        dispatch(["lehmer", "--max-degree", "4", f"--top={top}"])
    assert exit_info.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["-1", "0", "x"])
def test_lehmer_threads_must_be_positive(capsys, threads):
    with pytest.raises(SystemExit) as exit_info:
        dispatch(["lehmer", "--max-degree", "4", f"--threads={threads}"])
    assert exit_info.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "x"])
@pytest.mark.parametrize("argv", [
    ["mahler", "--poly", "1,0,-2"],
    ["yuzvinski", "--matrix", "0,1;1,1"],
    ["topological", "--matrix", "2,0;0,1/2", "--domain", "rn"],
])
def test_tol_must_be_positive_and_finite(capsys, argv, tol):
    with pytest.raises(SystemExit) as exit_info:
        dispatch(argv + [f"--tol={tol}"])
    assert exit_info.value.code == 2
    assert "not a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["topological", "--domain", "tn", "--matrix", "1/2"],
    ["yuzvinski", "--domain", "tn", "--matrix", "1/2,0;0,3"],
])
def test_torus_needs_integer_entries(capsys, argv):
    # x -> Ax induces a map of the torus only for an integer A
    assert dispatch(argv) == 2
    assert "needs integer entries" in capsys.readouterr().err


def test_padic_at_a_large_prime(capsys):
    # 2**61 - 1 is prime; 2**89 - 1 is prime but above the proven
    # Miller-Rabin bound, so it is refused rather than guessed
    assert dispatch(["padic", "--p", str(2 ** 61 - 1), "--xi", "2"]) == 0
    assert "0 (exact)" in capsys.readouterr().out
    assert dispatch(["padic", "--p", str(2 ** 89 - 1), "--xi", "2"]) == 2
    assert "not decided" in capsys.readouterr().err


def test_adjoint_probe_lattice_count_over_budget(capsys):
    # 7,405,170 lattices of Z^2 have index <= 3000, over the default budget
    assert dispatch(["adjoint-probe", "--matrix", "2,1;0,3", "--max-index", "3000"]) == 3
    assert "lattice enumeration exceeded budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["-3", "0", "x"])
def test_budget_must_be_positive(capsys, budget):
    with pytest.raises(SystemExit) as exit_info:
        dispatch(["growth", "--family", "free:2", "--horizon", "5", f"--budget={budget}"])
    assert exit_info.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["abelian", "free:2:weird", "heisenberg:3", "abelian:1:2"])
def test_exit_code_malformed_family(capsys, spec):
    assert dispatch(["growth", "--family", spec, "--horizon", "3"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("family, horizon, budget, code", [
    # gamma(5) of F_2 x Z^2 is 1857: the budget bounds the last ball
    ("product:free:2,abelian:2", 5, 1856, 3),
    ("product:free:2,abelian:2", 5, 1857, 0),
    # 12 generators and the identity: the ball of radius 1 exceeds 10
    ("free:6", 3, 10, 3),
    # an invalid horizon is reported as such, before the budget is checked
    ("free:6", 0, 10, 2),
])
def test_growth_budget(capsys, family, horizon, budget, code):
    assert dispatch(["growth", "--family", family, "--horizon", str(horizon),
                     "--budget", str(budget)]) == code
    assert ("exceeded budget" in capsys.readouterr().err) == (code == 3)


def test_dispatch_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert dispatch(["padic", "--p", "5", "--xi", "2/25"]) == 0
    assert built.count("entrokit") == 1


def test_inline_polynomial(capsys):
    # values starting with a dash use the --flag=value form
    code, report = run_json(capsys, ["mahler", "--poly=-2,1"])
    assert code == 0
    assert report["result"]["value"] == {"kind": "exact_log", "base": 2,
                                         "multiplier": "1/1"}


def test_rational_polynomial(capsys):
    # 1/2 - 3t + (2/7)t^2, times 14
    _, rational = run_json(capsys, ["mahler", "--poly", "1/2,-3,2/7"])
    _, scaled = run_json(capsys, ["mahler", "--poly", "7,-42,4"])
    assert rational["result"] == scaled["result"]


def test_exact_values_never_serialized_as_floats(capsys):
    _, report = run_json(capsys, ["yuzvinski", "--matrix", "2", "--domain", "zn"])
    value = report["result"]["value"]
    assert value["kind"] == "exact_log"
    assert isinstance(value["multiplier"], str)


@pytest.mark.parametrize("argv, coeffs", [
    (["mahler", "--poly", "1e20,0,1"], [10 ** 20, 0, 1]),
    (["mahler", "--poly", "3,0,0,0,1e30,7"], [3, 0, 0, 0, 10 ** 30, 7]),
    (["yuzvinski", "--matrix", "0,20000000000000000000;1,0", "--domain", "rn"],
     [-2 * 10 ** 19, 0, 1]),
])
def test_error_bound_covers_float_rounding(capsys, argv, coeffs):
    # roots far from the circle: the radius terms are tiny, so the bound has
    # to cover the rounding of the logs and of their sum
    code, report = run_json(capsys, argv)
    assert code == 0
    assert interval_contains(report["result"]["value"], mahler_reference(coeffs)[0])


def test_roots_just_off_the_circle(capsys):
    # 10^27 t^2 - (2 10^27 + 1) t + 10^27 has its roots at 1 +- 3.2e-14, off
    # the circle by less than tol but by more than the rounding allowance
    a = 10 ** 27
    code, report = run_json(capsys, ["mahler", "--poly", f"{a},{-(2 * a + 1)},{a}"])
    assert code == 0
    assert interval_contains(report["result"]["value"], mahler_reference([a, -(2 * a + 1), a])[0])


SCHEMA_COMMANDS = {
    "coeffs": ["mahler", "--poly"],
    "rows": ["yuzvinski", "--matrix"],
    "columns": ["adjoint", "--matrix", "2", "--lattice"],
    "nodes": ["cotrajectory", "--map", str(DATA / "left_shift.json"),
              "--horizon", "3", "--set"],
    "vectors": ["oracle", "--matrix", "2", "--horizon", "3", "--set"],
}


@pytest.mark.parametrize("key, bad", [
    pytest.param(key, bad, id=f"{key}-{what}") for key in SCHEMA_COMMANDS
    for what, bad in (("missing-key", {"x": 1}), ("bare-number", 5), ("non-list", {key: 5}))
] + [pytest.param(key, {key: [1, 2]}, id=f"{key}-non-list-row")
     for key in ("rows", "columns", "vectors")])
def test_exit_code_malformed_json_schema(capsys, tmp_path, key, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert dispatch(SCHEMA_COMMANDS[key] + [str(path)]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# self-map point names

BINARY_TREE = {"core": {"z": "z"}, "in_trees": [{"id": "T", "attach": "z", "branching": 2}]}


@pytest.mark.parametrize("command", ["cotrajectory", "shift"])
@pytest.mark.parametrize("tree, names", [
    (False, "S:1,S:01"), (False, "S:-1"), (False, "S:+1"), (False, "S: 1"),
    (True, "T:"), (True, "T:9"),
])
def test_exit_code_malformed_point_name(capsys, tmp_path, command, tree, names):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(BINARY_TREE))
    map_file = str(path) if tree else str(DATA / "left_shift.json")
    flag = "--set" if command == "cotrajectory" else "--oracle"
    extra = [] if command == "cotrajectory" else ["--order", "2", "--variant", "sum"]
    argv = [command, "--map", map_file, f"{flag}={names}", "--horizon", "3"] + extra
    assert dispatch(argv) == 2
    assert "malformed point name" in capsys.readouterr().err


try:
    from hypothesis import given, strategies as st
except ImportError:  # the property test below needs hypothesis
    given = None

if given is not None:
    ARGV_MAPS = {
        "left_shift": {"core": {"z": "z"}, "in_strings": [{"id": "S", "attach": "z"}]},
        "two_rays": {"core": {}, "out_rays": ["R", "R1"]},
        "tree3": TREE3,
        "fed_ray": {"core": {"a": "ray:R", "b": "a"}, "out_rays": ["R"],
                    "in_strings": [{"id": "S", "attach": "b"}]},
        "dangling": {"core": {"a": "b"}},
        "undeclared": {"core": {"a": "ray:R"}},
        "branching": {"core": {"z": "z"},
                      "in_trees": [{"id": "T", "attach": "z", "branching": 1}]},
        "colon": {"core": {"a:1": "a:1"}},
        "duplicate": {"core": {"S": "S"}, "in_strings": [{"id": "S", "attach": "S"}]},
        "schema": {"rows": [["1"]]},
        "not_json": "{",
        "missing": None,
    }

    @pytest.fixture(scope="module")
    def argv_maps(tmp_path_factory):
        folder = tmp_path_factory.mktemp("maps")
        paths = {}
        for name, content in ARGV_MAPS.items():
            paths[name] = folder / f"{name}.json"
            if content is not None:
                text = content if isinstance(content, str) else json.dumps(content)
                paths[name].write_text(text)
        return paths

    # names that some of the maps define, and malformed ones
    _point = st.one_of(
        st.sampled_from(["a", "z", "c", "x", ""]),
        st.builds("{}:{}".format, st.sampled_from(["R", "S", "T", "R1", "Q"]),
                  st.one_of(st.sampled_from(["0", "1", "2", "10", "21"]),
                            st.sampled_from(["01", "00", "-1", "+1", " 1", "", "9",
                                             "a", "1_0"]))))
    _points = st.lists(_point, min_size=1, max_size=3).map(",".join)
    _argv = st.one_of(
        st.just(["set-entropy"]),
        st.builds(lambda e, h, b: ["cotrajectory", f"--set={e}", f"--horizon={h}",
                                   f"--budget={b}"],
                  _points, st.integers(-1, 6), st.integers(1, 60)),
        st.builds(lambda q, v, e, h: ["shift", f"--order={q}", f"--variant={v}"]
                  + ([f"--oracle={e}", f"--horizon={h}"] if e else []),
                  st.integers(0, 5), st.sampled_from(["sum", "prod"]),
                  st.one_of(st.none(), _points), st.integers(-1, 5)),
    )

    _map_names = st.one_of(st.sampled_from(["left_shift", "two_rays", "tree3", "fed_ray"]),
                           st.sampled_from(sorted(ARGV_MAPS)))

    @given(_map_names, _argv)
    def test_self_map_argv_exit_codes(argv_maps, map_name, argv):
        argv = argv[:1] + ["--map", str(argv_maps[map_name])] + argv[1:]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = dispatch(argv)
        assert code in (0, 2, 3)

    # valid and malformed group families; ranks stay small, since a free
    # abelian generator is a vector of the rank's length
    _factor = st.one_of(
        st.sampled_from(["heisenberg", "heisenberg3", "heisenberg:3", "abelian", "free",
                         "", "grigorchuk", "free:2:weird", "free:2:standard+ab",
                         "free:1:standard+ab", "free:x", "free:99999999"]),
        st.builds("{}:{}".format, st.sampled_from(["abelian", "zn", "freeabelian", "free"]),
                  st.integers(-1, 4)),
        st.builds("{}:{}:{}".format, st.sampled_from(["abelian", "free"]),
                  st.integers(1, 3), st.sampled_from(["2", "standard+ab", ""])))
    _family = st.one_of(_factor, st.lists(_factor, max_size=3).map(
        lambda fs: "product:" + ",".join(fs)))

    @given(_family, st.integers(-1, 12), st.integers(-2, 300))
    def test_growth_argv_exit_codes(family, horizon, budget):
        argv = ["growth", f"--family={family}", f"--horizon={horizon}",
                f"--budget={budget}"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = dispatch(argv)
            except SystemExit as exc:   # argparse rejects the option value
                code = exc.code
        assert code in (0, 2, 3)

    # inline numeric inputs: an integer matrix with a lattice or vector set
    # of its dimension, and rows of entries valid and malformed, ragged or not
    _entry = st.sampled_from(["0", "1", "-1", "2", "-3", "1/2", "-5/3", "7", "1/0",
                              "", "x", "1.5", "1e3", " 2", "--1", "0/1"])
    _flat = st.lists(_entry, min_size=1, max_size=5).map(",".join)
    _rows = st.lists(st.lists(_entry, min_size=1, max_size=3).map(",".join),
                     min_size=1, max_size=3).map(";".join)

    def _int_rows(n, count):
        return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                        min_size=1 if count is None else count,
                        max_size=4 if count is None else count).map(
            lambda rows: ";".join(",".join(map(str, r)) for r in rows))

    # (matrix, n x n lattice columns, vectors in Z^n) or malformed text
    _pair = st.one_of(
        st.integers(1, 3).flatmap(lambda n: st.tuples(
            _int_rows(n, n), st.one_of(_int_rows(n, n), _int_rows(n, None)))),
        st.tuples(_rows, _rows))
    _numeric_argv = st.one_of(
        st.builds(lambda p: ["mahler", f"--poly={p}"], _flat),
        st.builds(lambda m, d: ["yuzvinski", f"--matrix={m[0]}", f"--domain={d}"],
                  _pair, st.sampled_from(["zn", "qn", "rn", "tn"])),
        st.builds(lambda m, d: ["topological", f"--matrix={m[0]}", f"--domain={d}"],
                  _pair, st.sampled_from(["rn", "tn"])),
        st.builds(lambda m, h: ["adjoint", f"--matrix={m[0]}", f"--lattice={m[1]}",
                                f"--horizon={h}"],
                  _pair, st.integers(1, 8)),
        st.builds(lambda m, h, b: ["oracle", f"--matrix={m[0]}", f"--set={m[1]}",
                                   f"--horizon={h}", f"--budget={b}"],
                  _pair, st.integers(-1, 5), st.integers(1, 2000)),
    )

    @given(_numeric_argv)
    def test_numeric_inline_argv_exit_codes(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = dispatch(argv)
        assert code in (0, 2, 3)

    # the remaining subcommands at desk-scale sizes, with non-positive
    # counts, composite and negative p, and primes on both sides of the
    # proven Miller-Rabin bound (2**61 - 1 and 2**89 - 1)
    _count = st.integers(-2, 3).map(str)
    _other_argv = st.one_of(
        st.builds(lambda p, xi: ["padic", f"--p={p}", f"--xi={xi}"],
                  st.one_of(st.integers(-3, 50),
                            st.sampled_from([2 ** 61 - 1, 2 ** 61 + 1, 2 ** 89 - 1])),
                  _entry),
        st.builds(lambda m, k: ["adjoint-probe", f"--matrix={m}", f"--max-index={k}"],
                  st.one_of(st.integers(1, 3).flatmap(lambda n: _int_rows(n, n)), _rows),
                  st.integers(-1, 8)),
        st.builds(lambda d, h, t, nm: ["lehmer", f"--max-degree={d}", f"--height={h}",
                                       f"--top={t}"] + (["--non-monic"] if nm else []),
                  st.integers(-1, 4), st.integers(-1, 2), _count, st.booleans()),
        st.builds(lambda d, b: ["espectrum", f"--dim={d}", f"--bound={b}"],
                  st.integers(-1, 2), st.integers(-1, 1)),
    )

    @given(_other_argv)
    def test_other_argv_exit_codes(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = dispatch(argv)
            except SystemExit as exc:   # argparse rejects the option value
                code = exc.code
        assert code in (0, 2, 3)
