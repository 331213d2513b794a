import json
from pathlib import Path

import pytest

from superdensity.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_bracket_verb(capsys):
    code, out = run_cli(["bracket", "--n", "1", "--F", "t1", "--G", "t1"], capsys)
    assert code == 0
    assert json.loads(out) == {"bracket": "1/2"}


def test_bracket_parse_error(capsys):
    code = main(["bracket", "--n", "1", "--F", "t1^2", "--G", "x"])
    assert code == 1


def test_act_verb(capsys):
    code, out = run_cli(["act", "--n", "1", "--F", "x", "--density", "t1"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == "(l + 1/2)*t1 @ l"


def test_classify_invariants_verb(capsys):
    code, out = run_cli(["classify-invariants", "--n", "1", "--k", "1/2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2


def test_classify_linear_verb(capsys):
    code, out = run_cli(["classify-linear", "--n", "0", "--shift", "2"], capsys)
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def test_h1_verb_json(capsys):
    code, out = run_cli(["h1", "--n", "1", "--shift", "3/2", "--no-gates"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_H1"] == 1
    assert payload["lambda_mode"] == "symbolic"
    assert payload["discrepancies"] == []


def test_h1_verb_at_value(capsys):
    code, out = run_cli(["h1", "--n", "0", "--shift", "1", "--lambda", "0",
                         "--no-gates"], capsys)
    assert code == 0
    assert json.loads(out)["dim_H1"] == 1


def test_determinism(capsys):
    _, out1 = run_cli(["h1", "--n", "0", "--shift", "2", "--no-gates"], capsys)
    _, out2 = run_cli(["h1", "--n", "0", "--shift", "2", "--no-gates"], capsys)
    assert out1 == out2


def test_emitted_operator_roundtrips(capsys):
    from superdensity.diffop import bi_from_json
    code, out = run_cli(["classify-invariants", "--n", "1", "--k", "1"], capsys)
    payload = json.loads(out)
    for blob in payload["basis"]:
        op = bi_from_json(blob)
        assert op.terms


def test_markdown_format(capsys):
    code, out = run_cli(["--format", "md", "classify-linear", "--n", "1",
                         "--shift", "1/2"], capsys)
    assert code == 0
    assert out.startswith("# aff(1|1)-invariant linear operators")


def test_check_axioms(capsys):
    code, out = run_cli(["check-axioms", "--degree", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert all(payload.values())


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["--output", str(target), "bracket", "--n", "0", "--F", "1",
                 "--G", "x"])
    assert code == 0
    assert json.loads(target.read_text())["bracket"] == "1"


def test_degree_bound_env(monkeypatch):
    from superdensity.cohomology import default_degree_bound
    assert default_degree_bound(4) == 10
    monkeypatch.setenv("SUPERDENSITY_DEGREE_BOUND", "12")
    assert default_degree_bound(4) == 12


def test_degree_bound_must_be_an_integer(monkeypatch, capsys):
    """A degree bound that is no integer names the variable, as a negative
    one does."""
    monkeypatch.setenv("SUPERDENSITY_DEGREE_BOUND", "1.5")
    assert main(["h1", "--n", "0", "--shift", "2"]) == 1
    assert capsys.readouterr().err == \
        "error: SUPERDENSITY_DEGREE_BOUND=1.5 is not an integer\n"


def test_degree_bound_is_capped(monkeypatch, capsys):
    """A degree bound above 32 would run for minutes or more; it fails at
    once and names the range.  32 itself and the defaults (at most 20) are
    accepted."""
    import time
    from superdensity.cohomology import MAX_DEGREE_BOUND, default_degree_bound
    from superdensity.scalars import ScalarError
    assert MAX_DEGREE_BOUND == 32
    monkeypatch.delenv("SUPERDENSITY_DEGREE_BOUND", raising=False)
    assert max(default_degree_bound(t) for t in range(-2, 15)) == 20
    monkeypatch.setenv("SUPERDENSITY_DEGREE_BOUND", "32")
    assert default_degree_bound(4) == 32
    for text in ("33", "100000"):
        monkeypatch.setenv("SUPERDENSITY_DEGREE_BOUND", text)
        with pytest.raises(ScalarError, match=r"outside the supported range 0\.\.32"):
            default_degree_bound(4)
    start = time.monotonic()
    assert main(["h1", "--n", "0", "--shift", "1", "--no-gates"]) == 1
    assert time.monotonic() - start < 5
    assert capsys.readouterr().err == \
        "error: SUPERDENSITY_DEGREE_BOUND=100000 outside the supported range 0..32\n"


def test_verify_printed_by_id():
    from superdensity.reports import verify_printed
    import pytest
    results = verify_printed("C_{0,1}")
    assert results[0].status == "confirmed"
    with pytest.raises(KeyError):
        verify_printed("no-such-claim")


def test_h1_report_with_gates(capsys):
    code, out = run_cli(["h1", "--n", "0", "--shift", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["gates"] == {
        "delta_delta_zero": True,
        "lemma_aff": True,
        "degree_stability": True,
        "specialization_consistency": True,
    }


def test_degree_bound_env_recomputes_cell(monkeypatch):
    from superdensity.cohomology import default_degree_bound, h1_cell
    monkeypatch.delenv("SUPERDENSITY_DEGREE_BOUND", raising=False)
    cell = h1_cell(0, 6)
    assert h1_cell(0, 6) is cell
    monkeypatch.setenv("SUPERDENSITY_DEGREE_BOUND", str(default_degree_bound(6) + 2))
    wider = h1_cell(0, 6)
    assert wider is not cell
    assert wider.degree_bound == cell.degree_bound + 2
    assert (wider.dim_z, wider.dim_h1) == (cell.dim_z, cell.dim_h1)


def test_unsupported_n_fails_fast(monkeypatch):
    assert main(["h1", "--n", "3", "--shift", "1"]) == 1
    assert main(["classify-invariants", "--n", "5", "--k", "1"]) == 1
    assert main(["classify-linear", "--n", "3", "--shift", "1"]) == 1
    assert main(["tables", "--n", "3"]) == 1
    # an empty or repeated range would print [] or every cell twice
    assert main(["tables", "--n", "2..0"]) == 1
    assert main(["tables", "--n", "0,0"]) == 1
    # a negative degree checks no monomial and would report every axiom true
    assert main(["check-axioms", "--degree", "-1"]) == 1
    # a negative degree bound would sweep no cocycle row at all
    monkeypatch.setenv("SUPERDENSITY_DEGREE_BOUND", "-1")
    assert main(["h1", "--n", "0", "--shift", "2"]) == 1


@pytest.mark.parametrize("verb", [["bracket", "--n", "-1", "--F", "x", "--G", "x"],
                                  ["act", "--n", "-1", "--F", "x", "--density", "x"]])
def test_negative_arity_names_the_arity(verb, capsys):
    assert main(verb) == 1
    err = capsys.readouterr().err
    assert err == "error: argument --n: -1 outside the supported range 0..8\n"


def test_tables_n0_golden(capsys):
    code, out = run_cli(["--format", "json", "tables", "--n", "0"], capsys)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "tables_n0.json").read_text()


def grid(verb, option, values):
    """One command per n = 0..2 and value, n outer."""
    return [[verb, "--n", str(n), option, v] for n in range(3) for v in values]


@pytest.mark.parametrize("args, golden", [
    (["tables", "--n", "1"], "tables_n1.json"),
    (["h1", "--n", "2", "--shift", "1", "--no-gates"], "h1_n2_shift1.json"),
    (["tables", "--n", "2"], "tables_n2.json"),
    (grid("classify-invariants", "--k", ["0", "1/2", "1", "3/2", "2", "5/2"]),
     "classify_invariants.json"),
    (grid("classify-linear", "--shift", ["-1", "0", "1/2", "1", "3/2", "2", "5/2",
                                         "3", "7/2", "4", "9/2"]),
     "classify_linear.json"),
    (["verify-paper"], "verify_paper.json"),
])
def test_json_golden(args, golden, capsys):
    """args is one command, or a list of commands whose outputs are read
    one after the other."""
    out = ""
    for command in args if isinstance(args[0], list) else [args]:
        code, text = run_cli(["--format", "json"] + command, capsys)
        assert code == 0
        out += text
    assert out == (Path(__file__).parent / "data" / golden).read_text()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_tables_jobs_below_one_fails_fast(monkeypatch):
    import concurrent.futures
    from superdensity import cli

    def refuse(cell):
        raise AssertionError("a cell was computed")

    monkeypatch.setattr(cli, "_one_report", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.sizes = []
    assert main(["tables", "--n", "0", "--jobs", "0"]) == 1
    assert main(["tables", "--n", "0", "--jobs", "-3"]) == 1
    assert RecordingPool.sizes == []


def test_tables_pool_has_at_most_one_worker_per_cell(monkeypatch):
    import concurrent.futures
    from types import SimpleNamespace
    from superdensity import cli, reports

    monkeypatch.setattr(cli, "_one_report",
                        lambda cell: SimpleNamespace(n=cell[0], twoshift=cell[1]))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.sizes = []
    cells = reports.table_cells([0])
    reps = cli._tables_reports([0], 5000)
    assert RecordingPool.sizes == [len(cells)]
    assert [(r.n, r.twoshift) for r in reps] == sorted(cells)
    # two workers for two or more cells; one job never builds a pool
    cli._tables_reports([0], 2)
    cli._tables_reports([0], 1)
    assert RecordingPool.sizes == [len(cells), 2]


def test_check_axioms_degree_is_bounded(capsys):
    """The axiom loop is cubic in the number of monomials, so a large
    degree would run for hours; it fails fast and names the bound."""
    assert main(["check-axioms", "--degree", "7"]) == 1
    assert capsys.readouterr().err == \
        "error: argument --degree: 7 outside the supported range 0..6\n"


def test_h1_shift_out_of_range_names_the_shift(capsys):
    """The message names the cochain shift mu - lambda the user gave, not
    the bilinear 2k it becomes; shift -1 is still accepted."""
    for shift in ("8", "15/2", "-3/2"):
        assert main(["h1", "--n", "0", f"--shift={shift}"]) == 1
        assert capsys.readouterr().err == (
            f"error: argument --shift: {shift} outside the supported range -1..7\n")
    assert main(["h1", "--n", "0", "--shift=-1", "--no-gates"]) == 0


@pytest.mark.parametrize("args", [
    ["h1", "--n", "0", "--shift", "2", "--lambda", "-4/3"],
    ["act", "--n", "0", "--F", "x", "--density", "x", "--weight", "-1/2"],
    ["bracket", "--n", "0", "--F", "-x", "--G", "x"],
    ["act", "--n", "0", "--F", "x", "--density", "-x"],
    ["bracket", "--n", "1", "--F", "-t1", "--G", "x"],
])
def test_negative_fraction_option_values(args, capsys):
    """argparse reads only -N and -N.M as negative numbers; a value such as
    -4/3 or -x after its option prints what the --opt=VALUE form prints."""
    i = next(i for i, tok in enumerate(args) if tok[0] == "-" and tok[1] != "-")
    joined = args[:i - 1] + [f"{args[i - 1]}={args[i]}"] + args[i + 1:]
    code, out = run_cli(args, capsys)
    assert code == 0
    assert (0, out) == run_cli(joined, capsys)


@pytest.mark.parametrize("args", [
    ["-h"],
    ["bracket", "-h"],
    ["act", "--n", "0", "--F", "x", "--density", "x", "--pi", "-h"],
    ["h1", "--n", "0", "--shift", "1", "--no-gates", "-h"],
])
def test_help_after_a_flag_is_still_help(args, capsys):
    """A single-dash token after a flag, or with no option before it, stays
    an option: -h prints the usage and exits 0."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: superdensity")


@pytest.mark.parametrize("args", [
    ["--output", "{bad}", "bracket", "--n", "0", "--F", "x", "--G", "x"],
    ["verify-paper", "--errata", "{bad}"],
])
def test_unwritable_output_path_exits_1(args, tmp_path, capsys):
    """A path in a missing directory is reported as an error, with exit 1
    and no traceback."""
    bad = tmp_path / "missing" / "x"
    assert main([a.format(bad=bad) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert not bad.parent.exists()


@pytest.mark.parametrize("args, message", [
    (["h1", "--n", "0", "--shift", "2", "--lambda", "4/x"],
     "argument --lambda: not an exact fraction"),
    (["h1", "--shift", "2"], "the following arguments are required: --n"),
    (["act", "--n", "0", "--F", "x", "--density", "x", "--weight", "-1/0"],
     "argument --weight: not an exact fraction"),
    (["h1", "--n", "0", "--shift", "1", "--lambda", "1e5000"],
     "argument --lambda: not an exact fraction"),
])
def test_usage_errors_exit_1(args, message, capsys):
    """Usage errors exit 1, the code the README gives for them (argparse's
    own is 2, the code of verify-paper --strict), and print one `error:`
    line as every other error does."""
    from superdensity.cli import build_parser
    assert main(args) == 1
    assert message in capsys.readouterr().err
    with pytest.raises(ValueError) as exc:
        build_parser().error(message)
    assert str(exc.value) == message


def test_huge_exponent_fails_fast():
    """Fraction("1e99999999") would build 10**99999999 before it returns;
    a value of more than 4300 digits is refused first.  1e4000 still
    parses."""
    import argparse
    import time
    from fractions import Fraction
    from superdensity.cli import _parse_fraction
    start = time.monotonic()
    for text in ("1e99999999", "0e99999999", "1e-99999999", "1.5e4300"):
        with pytest.raises(argparse.ArgumentTypeError, match="not an exact fraction"):
            _parse_fraction(text)
    assert time.monotonic() - start < 5
    assert _parse_fraction("1e3") == 1000
    assert _parse_fraction("-4/3") == Fraction(-4, 3)
    assert _parse_fraction("1e4000") == 10 ** 4000
    assert _parse_fraction("1e-4299") == Fraction(1, 10 ** 4299)


@pytest.mark.parametrize("sign", ["", "-"])
def test_long_exponent_is_refused_by_its_size(sign):
    """An exponent longer than the 4300 digits int() reads is refused as a
    value of more than 4300 digits, whatever its sign, and the message
    echoes a shortened value."""
    import argparse
    from superdensity.cli import _parse_fraction
    text = "1e" + sign + "9" * 5000
    with pytest.raises(argparse.ArgumentTypeError) as exc:
        _parse_fraction(text)
    message = str(exc.value)
    assert message == f"not an exact fraction: '1e{sign}{'9' * (22 - len(sign))}...' " \
        "(more than 4300 digits)"
    assert "set_int_max_str_digits" not in message


@pytest.mark.parametrize("args", [
    ["classify-invariants", "--n", "0", "--k"],
    ["classify-linear", "--n", "0", "--shift"],
    ["h1", "--n", "0", "--shift"],
])
@pytest.mark.parametrize("value", ["1e4000", "-1e4000", "9e4299"])
def test_long_out_of_range_shift_names_the_range(args, value, capsys):
    """A shift thousands of digits long is refused with one short error
    line that names the supported range, not the digits (9e4299 doubles
    to 4301 digits, past what Python turns into text)."""
    span = {"classify-invariants": "0..8", "classify-linear": "-64..64",
            "h1": "-1..7"}[args[0]]
    assert main(args + [value]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert len(err.encode()) < 200
    assert err == f"error: argument {args[-1]}: {value} outside the supported range {span}\n"


def test_closed_stdout_ends_without_a_traceback():
    """A reader that closes the pipe after one line (say `| head -1`) ends
    the run with exit 1 and nothing on stderr.  The pipe is shrunk to one
    page, so the report (about 26 kB) cannot fit in it before the reader
    closes."""
    import fcntl
    import os
    import subprocess
    import sys
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe size cannot be set on this platform")
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "superdensity.cli", "--format", "json",
         "classify-invariants", "--n", "2", "--k", "8"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as reader:
        assert reader.readline() == b"{\n"
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("args, code", [
    (["bracket", "--n", "0", "--F", "2/0", "--G", "x"], 1),
    (["bracket", "--n", "0", "--F", "1/0*x", "--G", "x"], 1),
    (["classify-linear", "--n", "0", "--shift", "500"], 1),
    (["--output", "{missing}", "tables", "--n", "0..2"], 1),
    (["--output", "{dir}", "h1", "--n", "0", "--shift", "2"], 1),
    (["verify-paper", "--errata", "{missing}"], 1),
    (["classify-linear", "--n", "2", "--shift", "64"], 0),
])
def test_bad_input_fails_before_the_work(args, code, tmp_path, monkeypatch, capsys):
    """A zero denominator, a linear shift outside -64..64 and an output
    path that cannot be written exit 1 with `error: ...` and no traceback;
    a bad path is found before any report is computed.  Shift 64 still
    works."""
    from superdensity import reports

    def refuse(*args, **kwargs):
        raise AssertionError("a report was computed")

    monkeypatch.setattr(reports, "h1_report", refuse)
    monkeypatch.setattr(reports, "verify_paper", refuse)
    args = [a.format(missing=tmp_path / "missing" / "x", dir=tmp_path) for a in args]
    assert main(args) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and not out
    else:
        assert json.loads(out)["dimension"] == 2


def numeric_options():
    """(verb, option, type) of every action of build_parser() that has a
    type."""
    from superdensity.cli import build_parser
    parser = build_parser()
    verbs = next(a for a in parser._actions if a.dest == "verb").choices
    return [(verb, action.option_strings[0], action.type)
            for verb, sub in verbs.items() for action in sub._actions
            if action.type is not None]


# each numeric option: its accepted range (None: every rational), its grid,
# and the values one step below and one above the range (None: no end)
NUMERIC_OPTIONS = {
    ("bracket", "--n"): ("0..8", "an integer", "-1", "9"),
    ("act", "--n"): ("0..8", "an integer", "-1", "9"),
    ("act", "--weight"): (None, None, None, None),
    ("classify-invariants", "--n"): ("0..2", "an integer", "-1", "3"),
    ("classify-invariants", "--k"): ("0..8", "a multiple of 1/2", "-1/2", "17/2"),
    ("classify-linear", "--n"): ("0..2", "an integer", "-1", "3"),
    ("classify-linear", "--shift"): ("-64..64", "a multiple of 1/2", "-129/2", "129/2"),
    ("h1", "--n"): ("0..2", "an integer", "-1", "3"),
    ("h1", "--shift"): ("-1..7", "a multiple of 1/2", "-3/2", "15/2"),
    ("h1", "--lambda"): (None, None, None, None),
    ("tables", "--n"): ("0..2", "an integer", "-1", "3"),
    ("tables", "--jobs"): (">= 1", "an integer", "0", None),
    ("check-axioms", "--degree"): ("0..6", "an integer", "-1", "7"),
}

# a valid command line of each verb, before the option under test
VALID = {
    "bracket": ["--n", "0", "--F", "x", "--G", "x"],
    "act": ["--n", "0", "--F", "x", "--density", "x"],
    "classify-invariants": ["--n", "0", "--k", "1"],
    "classify-linear": ["--n", "0", "--shift", "1"],
    "h1": ["--n", "0", "--shift", "1"],
    "tables": ["--n", "0"],
    "check-axioms": [],
}


def test_every_numeric_option_has_one_bounded_type():
    """Each numeric option is read by one type from the shared factory
    over scalars.read_number, and each is listed in NUMERIC_OPTIONS."""
    options = numeric_options()
    assert sorted((verb, opt) for verb, opt, _ in options) == sorted(NUMERIC_OPTIONS)
    for verb, opt, kind in options:
        assert kind.__qualname__ == "_number.<locals>.read", (verb, opt)


def refuse_work(monkeypatch):
    """Make every computation a verb can start raise."""
    from superdensity import cli, reports

    def refuse(*args, **kwargs):
        raise AssertionError("work was started")

    for module, name in [(reports, "h1_report"), (reports, "verify_paper"),
                         (cli, "solve_invariance_bi"), (cli, "solve_invariance_lin"),
                         (cli, "contact_bracket"), (cli, "act"), (cli, "_one_report")]:
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("verb, option", [(v, o) for v, o, _ in numeric_options()])
def test_numeric_option_refuses_bad_values_before_the_work(verb, option, monkeypatch,
                                                           capsys):
    """A value of 5,001 digits, 1e99999999, a value one step outside the
    range at either end and an off-grid value each exit 1 at once, with one
    short `error:` line that names the option and its range, grid or digit
    limit, and no traceback; nothing is computed."""
    import time
    span, grid, below, above = NUMERIC_OPTIONS[verb, option]
    refuse_work(monkeypatch)

    def too_long(value):
        shown = value[:24] + "..." if len(value) > 24 else value
        if span and ".." in span:
            return f"{shown} outside the supported range {span}"
        return f"not an exact fraction: {shown!r} (more than 4300 digits)"

    cases = [("1" + "0" * 5000, too_long("1" + "0" * 5000)),
             ("1e99999999", too_long("1e99999999"))]
    cases += [(v, f"{v} outside the supported range {span}")
              for v in (below, above) if v is not None]
    if grid:
        cases.append(("1/3", f"1/3 is not {grid}"))
    start = time.monotonic()
    for value, message in cases:
        assert main([verb] + VALID[verb] + [f"{option}={value}"]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: argument {option}: {message}\n"
        assert len(err.encode()) < 200 and not out
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("value, message", [
    ("0..100000000000000000000", "100000000000000000000 outside the supported range 0..2"),
    ("0.." + "9" * 4001, f"{'9' * 24}... outside the supported range 0..2"),
    ("0..1..2", "1..2 is not an integer"),
    ("0,", "'' is not an integer"),
    ("2..0", "2..0 must name each value once, at least one"),
], ids=["end-1e20", "end-4001-digits", "two-ranges", "empty-item", "empty-range"])
def test_tables_n_is_read_before_a_range_is_built(value, message, monkeypatch, capsys):
    """Each end of a tables --n range is read and bounded before the range
    is built, so a huge end is refused, not allocated; a malformed range
    or list names the option."""
    refuse_work(monkeypatch)
    assert main(["tables", "--n", value]) == 1
    assert capsys.readouterr().err == f"error: argument --n: {message}\n"


def test_degree_bound_of_5001_digits_names_the_range(monkeypatch, capsys):
    """A SUPERDENSITY_DEGREE_BOUND past Python's int() limit is outside
    0..32, and is reported so, with the value clipped."""
    value = "1" + "0" * 5000
    monkeypatch.setenv("SUPERDENSITY_DEGREE_BOUND", value)
    assert main(["h1", "--n", "0", "--shift", "1", "--no-gates"]) == 1
    assert capsys.readouterr().err == (
        f"error: SUPERDENSITY_DEGREE_BOUND={value[:24]}... outside the supported "
        "range 0..32\n")


@pytest.mark.parametrize("poly", ["1" + "0" * 5000, "t1" + "0" * 3999],
                         ids=["coefficient", "theta-index"])
def test_long_numbers_in_a_polynomial_give_a_short_error(poly, capsys):
    """A coefficient past the digit limit and a theta index of 4,000 digits
    are refused with one short `error:` line."""
    assert main(["bracket", "--n", "1", "--F", poly, "--G", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200 and "set_int_max_str_digits" not in err


LONG = "v" * 5000


@pytest.mark.parametrize("args", [[LONG],
                                  ["h1", "--n", "0", "--shift", "1", "--bogus", LONG],
                                  ["tables", "--n", "0", "--format", LONG],
                                  ["--format", LONG, "tables", "--n", "0"],
                                  ["h1", "--n", "0", "--shift", "1", "--bogus=" + LONG],
                                  ["h1", "--n", "0", "--shift", "1"] + ["zz"] * 3000,
                                  ["é" * 5000],
                                  ["h1", "--n", "0", "--shift", "1", "--bogus",
                                   "\n".join("ab" * 5)],
                                  ["h1", "--n", "0", "--shift", "1\n2"]],
                         ids=["verb", "unknown-option", "late-format", "format", "attached",
                              "many-arguments", "non-ascii-verb", "lines-in-an-argument",
                              "lines-in-a-number"])
def test_usage_errors_echo_clipped_text(args, capsys):
    """argparse's own messages echo the command line; each argument of it
    is clipped by clip_text, which escapes a line break as repr does and
    cuts by bytes of UTF-8, and the message too.  So a long verb, option
    or value, a verb of 5,000 two-byte characters, many unknown arguments,
    an unknown argument of ten lines and a number of two lines give one
    `error:` line under 200 bytes, and no stdout."""
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize("args, what", [
    (["--F", "x^" + "9" * 4300, "--G", "x^5" + "0" * 4299], "an exponent"),
    (["--F", "9" * 4300 + "*x", "--G", "9" * 4300 + "*x^2"], "a coefficient"),
])
def test_unprintable_bracket_gives_a_short_error(args, what, capsys):
    """Inputs within the digit limit can give a bracket with a number past
    it, here an exponent a + b - 1 of 4301 digits or a coefficient of
    8600; it exits 1 with one short `error:` line that names the limit."""
    assert main(["bracket", "--n", "0"] + args) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err == f"error: {what} of more than 4300 digits is too long to print\n"
