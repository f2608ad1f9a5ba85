"""Catalog listing, config loading, golden reports, and CLI exit codes.

The config reader is held to ``tests/config_oracle.py``, which reads a
file with ``configparser``: every bundled config, and hand texts with
comments, blank lines, mixed-case keys, padded ``=`` and values holding
``/``, ``,`` and ``=``, give the same scenarios in the same order, and
seven malformed files exit 2 naming the line.  A non-ASCII digit, ``1_0``
and ``+12`` are refused as integers before any scenario runs.  The
parameters each construction echoes at its defaults are pinned, and so
are the derived defaults under overrides; ``bishift`` at odd ``m`` with
no samples passes at the default ``T=2`` for ``m`` = 3, 5 and 7, and
``m=1`` exits 2.  A ``run_scenario`` that sets ``samples`` calls
``catalog._parse_samples`` once, and ``isoflow run`` resolves each
section once.  No public callable takes a ``label``, a tolerance or a
time ``t``, and each of the eight public checks returns a list of
``CheckEntry``.  Every bundled config prints its golden, whose residuals
are 0 or 1, and the exit codes are 0 for a pass, 1 for a failed check
and 2 for a usage, size or runtime error naming its scenario.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest
from config_oracle import read_config

import isoflow
from isoflow import (CellGrid1D, CheckEntry, LRegionIndex, QuadrantGrid2D, SemigroupFamily,
                     WindowedMap, __version__, bcl_check, bishift_families, catalog,
                     check_semigroup_law,
                     circulant_pair_setup, cli, double_dual_check, dual_cnu_check, dual_pair,
                     fuglede_instance_check, halfline_shift_family, l_region_setup,
                     modified_bishift_model_check, simultaneous_dc_ddc_classify,
                     verify_joint_equivalence)
from isoflow.catalog import CATALOG, Scenario, list_catalog, run_scenario
from isoflow.cli import load_scenarios, main
from isoflow.errors import InvalidInput, IsoflowError
from isoflow.report import render_reports

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
GOLDEN = ROOT / "tests" / "golden"

EXPECTED_CONSTRUCTIONS = {
    "halfline_shift", "bishift", "modified_bishift", "four_block_dc",
    "four_block_ddc", "commutant_e", "commutant_mz", "bcl", "dual_example",
    "double_dual", "simultaneous",
}


def test_catalog_lists_all_constructions():
    text = list_catalog()
    assert len(CATALOG) >= 11
    for name in EXPECTED_CONSTRUCTIONS:
        assert f"\n  {name}\n" in text
    # every entry carries a description and defaults line
    assert text.count("defaults:") == len(CATALOG)


def test_catalog_listing_stable():
    assert list_catalog() == list_catalog()


def test_unknown_construction_rejected():
    with pytest.raises(InvalidInput):
        run_scenario(Scenario("x", "no_such_thing", {}))


def test_config_loading(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("[demo]\nconstruction = bcl\nT = 4\nm = 4\nr = 1\n")
    scenarios = load_scenarios(str(path))
    assert scenarios[0].name == "demo"
    assert scenarios[0].construction == "bcl"
    with pytest.raises(IsoflowError):
        load_scenarios(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("[demo]\nT = 4\n")
    with pytest.raises(IsoflowError):
        load_scenarios(str(bad))


HAND_CONFIGS = {
    "comments_and_blanks": "# a comment\n; another\n\n[a]\n  # indented comment\n"
                           "construction = bcl\n\n\nT = 4\n; trailing comment\n",
    "mixed_case_keys": "[Mixed]\nconstruction = halfline_shift\nT = 2\nm = 1\n",
    "padded_equals": "[p]\nconstruction=bishift\nm   =   2\nT\t= 4 \n"
                     "samples =1/2,  1\n",
    "slash_and_comma": "[s]\nconstruction = bcl\nsamples = 1/4, 1/2,3/4\n"
                       "[t]\nconstruction = dual_example\nvariant = a=b/c,d\n",
    "crlf_and_empty_value": "[c]\r\nconstruction = bcl\r\nnote =\r\n",
}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_bundled_configs_read_as_configparser_reads_them(path):
    loaded = load_scenarios(str(path))
    assert [(s.name, s.construction, s.params) for s in loaded] == read_config(path)


@pytest.mark.parametrize("text", HAND_CONFIGS.values(), ids=HAND_CONFIGS)
def test_hand_configs_read_as_configparser_reads_them(monkeypatch, tmp_path, text):
    """The one-pass reader returns configparser's (name, construction, params)
    list, in order; the catalog check is stubbed so that any key reaches it."""
    path = tmp_path / "hand.cfg"
    path.write_bytes(text.encode())
    monkeypatch.setattr(catalog, "check_scenario", lambda scenario: None)
    loaded = load_scenarios(str(path))
    assert [(s.name, s.construction, s.params) for s in loaded] == read_config(path)


def test_default_is_an_ordinary_section(tmp_path):
    """[DEFAULT] lends its keys to no other section; it is a scenario like any other."""
    path = tmp_path / "default.cfg"
    path.write_text("[DEFAULT]\nconstruction = bcl\n\n[a]\nconstruction = bcl\nT = 4\n")
    assert [(s.name, s.params) for s in load_scenarios(str(path))] == \
        [("DEFAULT", {}), ("a", {"T": "4"})]
    path.write_text("[DEFAULT]\nT = 4\n\n[a]\nconstruction = bcl\n")
    with pytest.raises(IsoflowError, match=r"^scenario \[DEFAULT\] does not name a construction$"):
        load_scenarios(str(path))


def test_cli_has_no_tol_flag(capsys):
    """A check passes at residual exactly 0, so there is no tolerance to override."""
    with pytest.raises(SystemExit) as caught:
        main(["run", str(ROOT / "configs" / "shift.cfg"), "--tol", "1e-9"])
    assert caught.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_no_public_function_takes_tol():
    modules = [importlib.import_module(f"isoflow.{info.name}")
               for info in pkgutil.iter_modules(isoflow.__path__)]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):  # errors.py has none and no functions
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                checked += 1
                assert "tol" not in inspect.signature(obj).parameters, f"{module.__name__}.{name}"
    assert checked >= 11


def public_callables():
    """(where, callable) for every callable in a module's ``__all__`` and, for a
    class, each of its public methods."""
    for info in pkgutil.iter_modules(isoflow.__path__):
        module = importlib.import_module(f"isoflow.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            where = f"{module.__name__}.{name}"
            yield where, obj
            if inspect.isclass(obj):
                yield from ((f"{where}.{attr}", member) for attr, member in vars(obj).items()
                            if not attr.startswith("_") and inspect.isfunction(member))


def test_no_public_callable_takes_a_label():
    """Families and setups carry no name: the scenario report is the only named thing."""
    checked = 0
    for where, obj in public_callables():
        if inspect.isclass(obj):
            assert "label" not in dir(obj), where
        checked += 1
        assert "label" not in inspect.signature(obj).parameters, where
    assert checked >= 60


def test_no_public_callable_takes_a_time():
    """A time t = j/m is read from the config text by ``catalog`` alone: every
    constructor, family and check takes the step count j."""
    takes_a_time = [where for where, obj in public_callables()
                    if "t" in inspect.signature(obj).parameters]
    assert takes_a_time == []


ENTRY_CHECKS = {  # each public check on one small bundled input
    "check_semigroup_law": lambda: check_semigroup_law(halfline_shift_family(CellGrid1D(1, 4)),
                                                       1, [1]),
    "bcl_check": lambda: bcl_check(2, 1, 1, [0, 1]),
    "verify_joint_equivalence": lambda: verify_joint_equivalence(
        bishift_families(QuadrantGrid2D(1, 2)), bishift_families(QuadrantGrid2D(1, 2)),
        WindowedMap.identity(4), 1, [1]),
    "fuglede_instance_check": lambda: fuglede_instance_check(
        SemigroupFamily(WindowedMap.identity(4)), halfline_shift_family(CellGrid1D(1, 4)), 1,
        1, [1]),
    "dual_cnu_check": lambda: dual_cnu_check(dual_pair(l_region_setup(1, 2), 8), 4),
    "double_dual_check": lambda: double_dual_check(l_region_setup(1, 2), 8),
    "modified_bishift_model_check": lambda: modified_bishift_model_check(
        l_region_setup(1, 2), dual_pair(l_region_setup(1, 2), 8), LRegionIndex(1, 2), 6),
    "simultaneous_dc_ddc_classify": lambda: simultaneous_dc_ddc_classify(
        circulant_pair_setup(3, 3), 4, 4),
}


@pytest.mark.parametrize("check", ENTRY_CHECKS)
def test_each_check_returns_its_entries(check):
    entries = ENTRY_CHECKS[check]()
    assert type(entries) is list and entries
    assert all(type(entry) is CheckEntry and entry.passed for entry in entries)


@pytest.mark.parametrize("key", ["rank_rel", "resid_abs", "angle"])
def test_former_tolerance_keys_are_unknown_parameters(key, tmp_path, capsys):
    """No verdict reads a tolerance, so the three former tolerance keys are not
    parameters: a config that sets one exits 2 before any scenario runs, while
    every report still echoes them with fixed values."""
    config = tmp_path / "tol.cfg"
    config.write_text(f"[s]\nconstruction = halfline_shift\n{key} = 1e-10\n")
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err == f"isoflow: error: [s] unknown parameter {key}\n"
    report = run_scenario(Scenario("s", "halfline_shift", {}))
    assert {k: v for k, v in report.params if k in FIXED_ECHO} == FIXED_ECHO


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_bundled_configs_match_goldens(config):
    scenarios = load_scenarios(str(config))
    text = render_reports([run_scenario(s) for s in scenarios], version=__version__)
    golden = (GOLDEN / f"{config.stem}.txt").read_text()
    assert text == golden


def test_golden_residuals_are_zero_or_one():
    """The bundled reports are exact: every residual is 0 or 1, never a float
    that happened to come out small.  In memory, over every bundled config and
    one default scenario per construction, each residual is 0.0 or at least 1,
    which is why a check passes at exactly 0 with no tolerance."""
    residuals = [value for path in sorted(GOLDEN.glob("*.txt"))
                 for value in re.findall(r"\bresidual=(\S+)", path.read_text())]
    assert residuals
    assert set(residuals) <= {"0.000000e0", "1.000000e0"}
    scenarios = [s for config in CONFIGS for s in load_scenarios(str(config))]
    scenarios += [Scenario(name, name, {}) for name, *_ in CATALOG]
    values = [entry.residual for s in scenarios for entry in run_scenario(s).entries]
    assert len(values) >= len(residuals)
    assert all(value == 0.0 or value >= 1.0 for value in values), sorted(set(values))


def test_reports_are_deterministic():
    config = ROOT / "configs" / "duality.cfg"
    runs = []
    for _ in range(2):
        scenarios = load_scenarios(str(config))
        runs.append(render_reports([run_scenario(s) for s in scenarios], version=__version__))
    assert runs[0] == runs[1]


# the parameters each construction echoes when a scenario gives none, fixed echoes aside
DEFAULT_ECHO = {
    "halfline_shift": {"m": "1", "T": "8", "r": "1", "K": "10", "samples": "1,2,3"},
    "bishift": {"m": "2", "T": "2", "r": "1", "K": "6", "samples": "1/2,1"},
    "modified_bishift": {"m": "1", "T": "2", "r": "1", "samples": "1"},
    "four_block_dc": {"T": "4", "circ": "3", "K": "6"},
    "four_block_ddc": {"m": "1", "T": "2", "p": "3", "circ": "3", "K": "6", "max_orbit": "8"},
    "commutant_e": {"m": "2", "r": "1"},
    "commutant_mz": {"d": "1", "r": "1"},
    "bcl": {"T": "4", "m": "4", "r": "1",
            "samples": "0,1/4,1/2,3/4,1,5/4,3/2,7/4,2,9/4,5/2,11/4,3"},
    "dual_example": {"m": "1", "T": "2", "r": "1", "K": "4", "max_orbit": "8"},
    "double_dual": {"m": "1", "T": "2", "r": "1", "max_orbit": "8"},
    "simultaneous": {"variant": "mixed", "m": "1", "T": "2", "p": "3", "K": "6",
                     "max_orbit": "8"},
}
# echoed by every report; no check reads them
FIXED_ECHO = {"rank_rel": "1e-10", "resid_abs": "1e-10", "angle": "0.99999999"}


def echoed(construction, params):
    report = run_scenario(Scenario("s", construction, params))
    return {key: value for key, value in report.params if key not in FIXED_ECHO}


@pytest.mark.parametrize("construction", sorted(DEFAULT_ECHO))
def test_default_parameters_are_echoed(construction):
    report = run_scenario(Scenario(construction, construction, {}))
    assert dict(report.params) == {**DEFAULT_ECHO[construction], **FIXED_ECHO}
    assert report.overall


@pytest.mark.parametrize("construction, params, derived", [
    ("dual_example", {"m": "3", "T": "5"}, {"K": "17", "max_orbit": "60"}),
    ("four_block_dc", {"T": "7"}, {"K": "9"}),
    ("simultaneous", {"m": "2", "T": "3"}, {"K": "14", "max_orbit": "24"}),
    ("halfline_shift", {"m": "2", "T": "5", "K": "3"}, {"K": "3"}),
    ("bcl", {"T": "3", "m": "2"}, {"samples": "0,1/2,1,3/2,2"}),
])
def test_derived_defaults_follow_the_given_values(construction, params, derived):
    got = echoed(construction, params)
    assert {key: got[key] for key in derived} == derived


@pytest.mark.parametrize("m, samples", [(1, "1,2"), (3, "1/3,2/3"), (5, "1/5,2/5"),
                                        (4, "1/2,1")])
def test_bishift_default_samples_sit_on_the_grid(m, samples):
    assert echoed("bishift", {"m": str(m), "T": "4"})["samples"] == samples


def test_run_scenario_parses_given_samples_once(monkeypatch):
    calls = []

    def counting(raw):
        calls.append(raw)
        return parse(raw)

    parse = catalog._parse_samples
    monkeypatch.setattr(catalog, "_parse_samples", counting)
    assert echoed("halfline_shift", {"samples": "1,2"})["samples"] == "1,2"
    assert calls == ["1,2"]


def test_cli_run_resolves_each_section_once(monkeypatch, capsys):
    """``load_scenarios`` checks every section and ``run_scenario`` reads the same
    resolved parameters, so a run resolves each section once, not once in each."""
    calls = []
    check = catalog.check_scenario

    def counting(scenario):
        calls.append(scenario.name)
        return check(scenario)

    for module in (catalog, cli):  # every binding of the name
        if hasattr(module, "check_scenario"):
            monkeypatch.setattr(module, "check_scenario", counting)
    config = ROOT / "configs" / "duality.cfg"
    assert main(["run", str(config)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "duality.txt").read_text()
    assert calls == [name for name, _, _ in read_config(config)]


# --- CLI process-level behavior -----------------------------------------------------

def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "isoflow.cli", *args],
                          capture_output=True, text=True, cwd=ROOT)


def test_cli_list_exit_zero():
    proc = run_cli("list")
    assert proc.returncode == 0
    assert "available constructions:" in proc.stdout


def test_cli_run_pass_exit_zero(tmp_path):
    out = tmp_path / "report.txt"
    proc = run_cli("run", "configs/bcl.cfg", "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout
    assert proc.stdout == (GOLDEN / "bcl.txt").read_text()


def test_cli_run_check_failure_exit_one(tmp_path):
    config = tmp_path / "starved.cfg"
    config.write_text("[starved]\nconstruction = bishift\nm = 2\nT = 2\nK = 1\n"
                      "samples = 1/2\n")
    proc = run_cli("run", str(config))
    assert proc.returncode == 1
    assert "overall FAIL" in proc.stdout


def test_cli_bishift_odd_m_runs_on_grid_default_samples(tmp_path):
    config = tmp_path / "odd.cfg"
    config.write_text("[odd]\nconstruction = bishift\nm = 3\nT = 4\n")
    proc = run_cli("run", str(config))
    assert proc.returncode == 0, proc.stderr
    assert "param samples = 1/3,2/3\n" in proc.stdout


def test_bishift_odd_m_passes_at_the_default_window(tmp_path, capsys):
    """At T=2 the axis has 2m cells, and the largest sample pair, 2/m + 2/m,
    moves 4 of them: fewer than 2m for every odd m >= 3."""
    config = tmp_path / "odd.cfg"
    config.write_text("".join(f"[bishift_m{m}]\nconstruction = bishift\nm = {m}\n\n"
                              for m in (3, 5, 7)))
    assert main(["run", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.count("overall pass") == 3 and "overall FAIL" not in out


def test_bishift_m1_exhausts_the_default_window(tmp_path, capsys):
    """At m=1, T=2 no positive sample pair fits in the 2-cell axis."""
    config = tmp_path / "m1.cfg"
    config.write_text("[bishift_m1]\nconstruction = bishift\nm = 1\n")
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr().err == (
        "isoflow: error: [bishift_m1] every sample pair exhausts the window\n")


def test_oversized_commutant_exits_two_naming_its_scenario(tmp_path, capsys):
    """d=5000, r=8 passes the config checks, but its n = 40008 would need
    about 12.8 GB of entry labels: the solver refuses it before allocating."""
    config = tmp_path / "big.cfg"
    config.write_text("[big_mz]\nconstruction = commutant_mz\nd = 5000\nr = 8\n")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("isoflow: error: [big_mz] ") and "n = 40008" in err


def test_cli_usage_errors_exit_two(tmp_path):
    proc = run_cli("run", str(tmp_path / "nowhere.cfg"))
    assert proc.returncode == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[x]\nconstruction = banana\n")
    proc = run_cli("run", str(bad))
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_cli_runtime_error_names_scenario(tmp_path):
    config = tmp_path / "exhausted.cfg"
    config.write_text("[fine]\nconstruction = bcl\n\n"
                      "[exhausted]\nconstruction = halfline_shift\nm = 1\nT = 2\nsamples = 3\n")
    proc = run_cli("run", str(config))
    assert proc.returncode == 2
    assert proc.stderr == "isoflow: error: [exhausted] every sample pair exhausts the window\n"


def test_cli_unknown_parameter_rejected_before_any_scenario_runs(tmp_path):
    config = tmp_path / "typo.cfg"
    config.write_text("[fine]\nconstruction = bcl\n\n"
                      "[typo]\nconstruction = halfline_shift\nTt = 3\n")
    proc = run_cli("run", str(config))
    assert proc.returncode == 2
    assert proc.stderr == "isoflow: error: [typo] unknown parameter Tt\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("bad, message", [
    ("construction = bishift\nm = -2\n", "m must be a positive integer, got -2"),
    ("construction = dual_example\nmax_orbit = 0\n", "max_orbit must be a positive integer, got 0"),
    ("construction = commutant_e\nm = 1\n", "m must be an integer >= 2, got 1"),
    ("construction = simultaneous\nvariant = twisted\n",
     "variant must be one of mixed, bishift, unitary, got 'twisted'"),
    ("construction = bishift\nsamples = 1/3\n",
     "samples must be nonnegative multiples of 1/2, got 1/3"),
    ("construction = bcl\nsamples = 1/0\n", "cannot parse samples '1/0'"),
    ("construction = halfline_shift\nm = \u0663\n", "m must be a positive integer, got \u0663"),
    ("construction = halfline_shift\nT = 1_0\n", "T must be a positive integer, got 1_0"),
    ("construction = halfline_shift\nK = +12\n", "K must be a positive integer, got +12"),
    # variant leads the defaults line, so it is named before the K after it in the file
    ("construction = simultaneous\nK = 0\nvariant = twisted\n",
     "variant must be one of mixed, bishift, unitary, got 'twisted'"),
], ids=["negative_m", "zero_max_orbit", "single_cell", "unknown_variant", "off_grid_sample",
        "zero_denominator", "arabic_indic_digit", "underscore", "plus_sign",
        "defaults_line_order"])
def test_cli_bad_value_rejected_before_any_scenario_runs(tmp_path, bad, message):
    config = tmp_path / "values.cfg"
    config.write_text("[fine]\nconstruction = halfline_shift\n\n[b]\n" + bad, encoding="utf-8")
    with pytest.raises(IsoflowError) as caught:
        load_scenarios(str(config))
    assert str(caught.value) == f"[b] {message}"
    proc = run_cli("run", str(config))
    assert proc.returncode == 2
    assert proc.stderr == f"isoflow: error: [b] {message}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("text,line", [
    (b"[a]\nconstruction = bcl\n\n[a]\nconstruction = bcl\n", 4),
    (b"[a]\nconstruction = bcl\nT = 2\nT = 3\n", 4),
    (b"construction = bcl\n", 1),
    (b"[a]\nconstruction = bcl\nT = \xff\n", 3),
    (b"[a]\nconstruction = bcl\nT 2\n", 3),
    (b"[a]\nconstruction = bcl\nT: 2\n", 3),
    (b"[a]\nconstruction = bcl\nsamples = 1/2,\n  1\n", 4),
], ids=["duplicate_section", "duplicate_key", "no_section_header", "not_utf8", "no_equals",
        "colon_delimiter", "continuation_line"])
def test_cli_malformed_config_exits_two(tmp_path, text, line):
    config = tmp_path / "malformed.cfg"
    config.write_bytes(text)
    prefix = f"cannot parse config file {str(config)!r}: line {line}: "
    with pytest.raises(IsoflowError, match="^" + re.escape(prefix)):
        load_scenarios(str(config))
    proc = run_cli("run", str(config))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"isoflow: error: {prefix}")


def test_cli_unwritable_out_exits_two(tmp_path):
    out = tmp_path / "missing" / "r.txt"
    proc = run_cli("run", "configs/bcl.cfg", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"isoflow: error: cannot write {out}: No such file or directory\n"
    assert proc.stdout == ""
    assert not out.parent.exists()


def test_main_inprocess_matches_subprocess(capsys):
    code = main(["run", str(ROOT / "configs" / "shift.cfg")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (GOLDEN / "shift.txt").read_text()
