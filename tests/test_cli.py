import argparse
import importlib
import json
import os
import subprocess
import sys
from itertools import product

import pytest

import ospkostka
from ospkostka import oddroots, orbits, roots
from ospkostka.cli import (
    CACHE_ENV,
    build_parser,
    cache_load,
    cache_store,
    main,
    parse_biweight,
    UsageError,
)

# The package attribute `kostka` is the function; the memo lives in the module.
kostka_module = importlib.import_module("ospkostka.kostka")
cli_module = importlib.import_module("ospkostka.cli")


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "ospkostka.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_kostka_json_example():
    code, out, _ = run_cli("kostka", "-N", "3", "--lambda", "1;1", "--mu", "0;0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"poly": {"coeffs": [0, 1]}}


def test_verify_bryl_exit_zero():
    code, out, _ = run_cli("verify-bryl", "-N", "3", "--mu", "0;0", "--qmax", "0")
    assert code == 0
    assert "ok" in out


def test_dominance_parity_failure():
    code, out, _ = run_cli("dominance", "-N", "3", "--lambda", "1;0", "--mu", "0;0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"ge": False, "certificate": None}


def test_dominance_certificate():
    code, out, _ = run_cli("dominance", "-N", "3", "--lambda", "2;2", "--mu", "0;0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"ge": True, "certificate": [0, 2]}


def test_parse_errors_exit_two():
    code, _, err = run_cli("kostka", "-N", "3", "--lambda", "x;1", "--mu", "0;0")
    assert code == 2
    assert err == (
        "error: bad lambda eps part 'x': expected an integer at position 0, got 'x'\n"
    )
    code, _, err = run_cli("kostka", "-N", "3", "--lambda", "1,1;1", "--mu", "0;0")
    assert code == 2
    assert "length" in err
    code, _, _ = run_cli("no-such-command")
    assert code == 2


def test_rank_guard_reports_bound():
    code, _, err = run_cli("kostka", "-N", "11", "--lambda", "0,0,0,0,0;0,0,0,0,0",
                           "--mu", "0,0,0,0,0;0,0,0,0,0")
    assert code == 2
    assert "guard" in err


def test_parse_biweight_rejects_missing_semicolon():
    with pytest.raises(UsageError):
        parse_biweight("1,2", what="weight")


def test_char_command_matches_library():
    code, out, _ = run_cli("char", "--type", "C", "--rank", "2", "--lambda", "3,1",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 35
    weights = [tuple(e["weight"]) for e in payload["weights"]]
    assert weights == sorted(weights)


def test_stalk_and_dim_commands():
    code, out, _ = run_cli("stalk", "-N", "3", "--lambda", "1;1", "--mu", "0;0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"stalk": [{"degree": -1, "dim": 1}]}
    code, out, _ = run_cli("dim", "-N", "5", "--orbit", "1,0;1,0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"dim": 5}
    code, _, err = run_cli("stalk", "-N", "3", "--lambda", "0;0", "--mu", "1;1")
    assert code == 2
    assert "closure" in err


def test_poset_json_golden():
    code, out, _ = run_cli("poset", "-N", "3", "--box", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "edges": [["-1;0", "0;1"], ["0;0", "-1;1"], ["0;0", "1;1"], ["1;0", "0;1"]],
        "nodes": ["-1;0", "-1;1", "0;0", "0;1", "1;0", "1;1"],
    }


def test_poset_dot_output():
    code, out, _ = run_cli("poset", "-N", "3", "--box", "1", "--dot")
    assert code == 0
    assert out.startswith("digraph closure {")
    edges = [line for line in out.splitlines() if "->" in line]
    assert edges == sorted(edges)
    assert '"0;0" -> "1;1";' in edges or '  "0;0" -> "1;1";' in edges


def test_orbit_rep_and_stabilizer():
    code, out, _ = run_cli("orbit-rep", "-N", "3", "--orbit", "1;1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == ["t^{-2} e1 + t^{-1} e3", "t^{1} e2 + e3", "t^{1} e3"]
    code, out, _ = run_cli("stabilizer", "-N", "3", "--orbit", "0;0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reductive"] == "SO_2"
    assert payload["m"] == {"0": 2}


def test_lpoly_and_roots_commands():
    code, out, _ = run_cli("lpoly", "-N", "3", "--alpha", "0;2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"poly": {"coeffs": [0, 0, 1]}}
    code, out, _ = run_cli("roots", "--family", "C", "--rank", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["positive_roots"] == [[1, -1], [1, 1], [2, 0], [0, 2]]
    assert payload["rho"] == [2, 1]
    code, out, _ = run_cli("roots", "-N", "5", "--odd", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["shuffle"] == [3, 1, 4, 2]
    assert len(payload["odd_positive_roots"]) == 8


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-N", "5", "--family", "C", "--rank", "2"], "roots --family/--rank takes no -N"),
        (["--odd", "-N", "3", "--family", "C", "--rank", "9"],
         "roots --odd takes -N, not --family or --rank"),
        (["--odd", "-N", "3", "--family", "D"], "roots --odd takes -N, not --family or --rank"),
        (["--odd", "-N", "3", "--rank", "2"], "roots --odd takes -N, not --family or --rank"),
    ],
    ids=["n-with-family", "odd-with-family-rank", "odd-with-family", "odd-with-rank"],
)
def test_roots_rejects_ignored_options(argv, message, capsys):
    """Each form of roots reads only its own options; an option the form
    would ignore is a usage error, not silently dropped."""
    assert main(["roots", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_closure_command():
    code, out, _ = run_cli("closure", "-N", "3", "--lower", "0;0", "--upper", "1;1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"le": True}
    code, out, _ = run_cli("closure", "-N", "3", "--lower", "0;0", "--upper", "1;0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"le": False}


# The even-N orbit labels put the D-type coweight on the SO_N side, so
# these pin the side swap through the CLI.
EVEN_N_ORBIT_JSON = [
    (["orbit-rep", "-N", "4", "--orbit=1;1,-1"],
     '{"generators": ["t^{-2} e1 + t^{-1} e4", "t^{1} e2 + t^{1} e4", '
     '"e3 + t^{-1} e4", "t^{1} e4"], "inverted": true, "mu": [1, 0, -1], '
     '"nu": [1, -1, 1, -1]}\n'),
    (["orbit-rep", "-N", "6", "--orbit=1,0;2,1,-1"],
     '{"generators": ["t^{-3} e1 + t^{-2} e6", "t^{-1} e2 + t^{-1} e6", '
     '"t^{1} e3 + t^{1} e6", "t^{-1} e4 + t^{-1} e6", "t^{2} e5 + t^{1} e6", '
     '"t^{2} e6"], "inverted": true, "mu": [1, 0, 0, 0, -1], '
     '"nu": [2, 1, -1, 1, -1, -2]}\n'),
    (["stabilizer", "-N", "4", "--orbit=0;1,-1"],
     '{"alpha": [1, 0, 1, 0, -1, 0, -1], "beta": [1, 1, 1, -1, -1, -1], '
     '"m": {"-1": 1, "1": 1}, "n": {"-1": 3, "1": 3}, "reductive": "GL_1"}\n'),
    (["stabilizer", "-N", "6", "--orbit=1,0;1,1,-1"],
     '{"alpha": [1, 1, 1, 0, 1, 0, -1, 0, -1, -1, -1], '
     '"beta": [2, 2, 1, 1, 1, -1, -1, -1, -2, -2], '
     '"m": {"-1": 1, "-2": 1, "1": 1, "2": 1}, '
     '"n": {"-1": 3, "-2": 2, "1": 3, "2": 2}, "reductive": "GL_1 x GL_1"}\n'),
    (["closure", "-N", "4", "--lower=0;0,0", "--upper=0;1,-1"], '{"le": true}\n'),
    (["closure", "-N", "4", "--lower=0;1,-1", "--upper=1;1,1"], '{"le": false}\n'),
    (["closure", "-N", "6", "--lower=0,0;1,1,0", "--upper=1,0;1,1,-1"],
     '{"le": true}\n'),
    (["closure", "-N", "6", "--lower=0,0;1,0,0", "--upper=1,0;1,1,-1"],
     '{"le": false}\n'),
]


@pytest.mark.parametrize(
    "argv, stdout",
    EVEN_N_ORBIT_JSON,
    ids=[f"{a[0]}-N{a[2]}-{i}" for i, (a, _) in enumerate(EVEN_N_ORBIT_JSON)],
)
def test_even_n_orbit_json_pinned(argv, stdout, capsys):
    assert main([*argv, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""


def test_kostka_custom_command():
    code, out, _ = run_cli(
        "kostka-custom",
        "--roots", "1;1 -1;1",
        "--simple", "-1;1 1;1",
        "--rank0", "1",
        "--rank1", "1",
        "--lambda", "1;1",
        "--mu", "0;0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"poly": {"coeffs": [0, 1]}}
    # values starting with "-" use the --flag=value form
    code, _, err = run_cli(
        "kostka-custom",
        "--roots", "1;0",
        "--simple=-1;0",
        "--rank0", "1",
        "--rank1", "1",
        "--lambda", "0;0",
        "--mu", "0;0",
    )
    assert code == 2
    assert "expansion" in err


def test_negative_weight_entries_use_equals_form():
    code, out, _ = run_cli("kostka", "-N", "3", "--lambda=-1;1", "--mu", "0;0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"poly": {"coeffs": [0, 1]}}


def test_verify_positivity_exit_zero():
    code, out, _ = run_cli("verify-positivity", "-N", "3", "--box", "2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_moment_check_deterministic_across_jobs():
    runs = []
    for jobs in ("1", "2", "3"):
        code, out, _ = run_cli("moment-check", "-N", "3", "--trials", "8",
                               "--seed", "5", "--jobs", jobs, "--format", "json")
        assert code == 0
        runs.append(out)
    # exact merges make the payload byte-identical across worker counts
    assert runs[0] == runs[1] == runs[2]
    assert json.loads(runs[0])["ok"]


def test_moment_check_pool_is_capped_at_the_cpu_count(monkeypatch, capsys):
    """--jobs past the CPU count asks for one process per CPU; the fake
    pool runs its tasks in this process, so no process starts."""
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["moment-check", "-N", "3", "--trials", "50", "--seed", "5", "--format", "json"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--jobs", "50"]) == 0
    assert capsys.readouterr().out == serial
    assert sizes == [2]


def test_jobs_only_on_moment_check():
    code, _, err = run_cli("roots", "--family", "C", "--rank", "2", "--jobs", "2")
    assert code == 2
    assert "--jobs" in err


def test_cache_only_on_kostka_commands(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    with pytest.raises(SystemExit) as exc:
        main(["dominance", "-N", "3", "--lambda", "1;1", "--mu", "0;0",
              "--cache", str(path)])
    assert exc.value.code == 2
    # Commands that compute no Kostka polynomial ignore the variable too.
    monkeypatch.setenv(CACHE_ENV, str(path))
    assert main(["dominance", "-N", "3", "--lambda", "1;1", "--mu", "0;0"]) == 0
    assert not path.exists()


def test_cache_env_var(tmp_path):
    path = tmp_path / "env-cache.json"
    # Minimal env: only OSP_KOSTKA_CACHE names the cache.  PYTHONPATH is the
    # directory holding the imported package, so the child finds it whether
    # the package is installed or only on the parent's (possibly relative)
    # PYTHONPATH.
    package_root = os.path.dirname(os.path.dirname(ospkostka.__file__))
    env = {"OSP_KOSTKA_CACHE": str(path), "PATH": "/usr/bin:/bin",
           "PYTHONPATH": package_root}
    proc = subprocess.run(
        [sys.executable, "-m", "ospkostka.cli", "kostka", "-N", "3",
         "--lambda", "1;1", "--mu", "0;0", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert cache_load(path)


def test_byte_identical_reruns():
    args = ("verify-bryl", "-N", "3", "--mu", "1;1", "--qmax", "3", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    assert first[0] == 0


def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.json"
    entries = {"3|K|1|1|0|0": [0, 1]}
    cache_store(path, entries)
    assert cache_load(path) == entries


def test_cache_store_crash_leaves_old_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    cache_store(path, {"3|K|1|1|0|0": [0, 1]})
    before = path.read_bytes()

    def torn_dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:20])
        raise RuntimeError("crash mid-dump")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(RuntimeError, match="mid-dump"):
        cache_store(path, {"3|K|1|1|0|0": [0, 1], "3|K|2|2|0|0": [0, 0, 1]})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.json"]  # no temporary file left


def test_cache_ignores_unknown_version(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"version": "other", "entries": {"x": [1]}}))
    assert cache_load(path) == {}


def test_cache_corrupt_file_cold_run(tmp_path):
    """Bad JSON, bytes that are not UTF-8 and an integer past int()'s digit
    limit all degrade to a cold run that leaves a valid cache behind."""
    path = tmp_path / "cache.json"
    too_long = b'{"version": "ospkostka-cache-1", "entries": {"x": [' + b"1" * 5000 + b"]}}"
    for content in (b"not json", b"\xff\xfe\x00{not utf-8", too_long):
        path.write_bytes(content)
        code, out, err = run_cli("kostka", "-N", "3", "--lambda", "1;1", "--mu", "0;0",
                                 "--cache", str(path), "--format", "json")
        assert code == 0, err
        assert json.loads(out) == {"poly": {"coeffs": [0, 1]}}
        assert "ignoring unreadable cache" in err
        assert cache_load(path) == {"3|K|1|1|0|0": [0, 1]}


def test_cache_output_identical_with_and_without(tmp_path):
    path = tmp_path / "cache.json"
    args = ("kostka", "-N", "4", "--lambda", "2,0;1", "--mu", "0,0;0",
            "--format", "json")
    cold = run_cli(*args)
    warm_write = run_cli(*args, "--cache", str(path))
    warm_read = run_cli(*args, "--cache", str(path))
    assert cold[1] == warm_write[1] == warm_read[1]
    assert cache_load(path)  # the run populated the cache
    # in-process entry point agrees with the subprocess surface
    assert main(list(args)) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kostka", "-N", "3", "--lambda=0;-1", "--mu", "0;0"],
         "lambda delta-part (-1,) is not C_1-dominant"),
        (["kostka", "-N", "11", "--lambda", "0,0,0,0,0;0,0,0,0,0",
          "--mu", "0,0,0,0,0;0,0,0,0,0"],
         "enumeration too large: n=5 exceeds guard 4"),
        (["kostka-custom", "--roots", "1;0", "--simple=-1;0", "--rank0", "1",
          "--rank1", "1", "--lambda", "0;0", "--mu", "0;0"],
         "root 1;0 has no nonnegative integral expansion over the simple set"),
        (["kostka-custom", "--roots", "1;1", "--simple", ";", "--rank0", "1",
          "--rank1", "1", "--lambda", "1;1", "--mu", "0;0"],
         "simple roots are linearly dependent"),
        (["kostka-custom", "--roots", "1;1", "--simple", "1;0 2;0", "--rank0", "1",
          "--rank1", "1", "--lambda", "1;1", "--mu", "0;0"],
         "simple roots are linearly dependent"),
        (["dominance", "-N", "3", "--lambda", "1;1", "--mu=0;-1"],
         "mu delta-part (-1,) is not C_1-dominant"),
        (["stalk", "-N", "3", "--lambda", "0;0", "--mu", "1;1"],
         "orbit not in closure"),
        (["char", "--type", "C", "--rank", "2", "--lambda", "1,2"],
         "(1, 2) is not C_2-dominant"),
        (["char", "--type", "C", "--rank", "8", "--lambda", "0,0,0,0,0,0,0,0"],
         "enumeration too large: rank 8 exceeds guard 7"),
        (["verify-bryl", "-N", "3", "--mu=0;-1", "--qmax", "1"],
         "mu delta-part (-1,) is not C_1-dominant"),
        (["dim", "-N", "3", "--orbit=0;-1"],
         "lam_b (-1,) is not a dominant C_1 coweight"),
        (["stalk", "-N", "4", "--lambda=1;1", "--mu=0;0,0"],
         "lambda orbit lam_b (1,) has length 1, N=4 needs 2"),
    ],
    ids=["kostka", "kostka-guard", "kostka-custom", "kostka-custom-rank-zero",
         "kostka-custom-dependent", "dominance", "stalk", "char", "char-guard",
         "verify-bryl", "orbit-label", "orbit-label-length"],
)
def test_library_errors_exit_two(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_moment_check_has_no_even_n_guard(capsys):
    assert main(["moment-check", "-N", "14", "--trials", "2"]) == 0
    assert capsys.readouterr().out == "moment-check N=14 trials=2 seed=42: ok\n"


def test_cache_file_drops_malformed_keys(tmp_path, monkeypatch):
    monkeypatch.setattr(kostka_module, "_kostka_memo", {})
    path = tmp_path / "cache.json"
    good = {"3|K|1|1|0|0": [0, 1]}
    malformed = {
        "3|K|1|1|0": [0, 1],  # five parts
        "3|L|1|1|0|0": [0, 1],  # tag other than K
        "3|K|x|1|0|0": [0, 1],  # non-integer vector entry
        "3|K|2|2|0|0": "q^2",  # coefficients not a list
        "3|K|3|3|0|0": [0, 1.5],  # non-int coefficient
    }
    cache_store(path, {**good, **malformed})
    assert main(["kostka", "-N", "3", "--lambda", "1;1", "--mu", "0;0",
                 "--cache", str(path)]) == 0
    assert cache_load(path) == good


def test_kostka_custom_rank_guard_is_quick():
    """Past the guard the Weyl sum would visit |W(D_5)| * |W(C_5)| =
    7,372,800 pairs; the guard refuses before any of them."""
    zero = "0,0,0,0,0;0,0,0,0,0"
    root = "1,0,0,0,0;1,0,0,0,0"
    proc = subprocess.run(
        [sys.executable, "-m", "ospkostka.cli", "kostka-custom", "--roots", root,
         "--simple", root, "--rank0", "5", "--rank1", "5", "--lambda", zero, "--mu", zero],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: enumeration too large: rank 5 exceeds guard 4\n"
    assert proc.stdout == ""


def test_kostka_custom_empty_simple_set_exit_two(capsys):
    assert main(["kostka-custom", "--roots", "1;1", "--simple", " ", "--rank0", "1",
                 "--rank1", "1", "--lambda", "1;1", "--mu", "0;0"]) == 2
    assert capsys.readouterr().err == "error: simple root set is empty\n"


@pytest.mark.parametrize(
    "rank0, extra, message",
    [
        ("1", ["--lambda", "1,5;1", "--mu", "0;0"],
         "lambda eps part (1, 5) has length 2, expected 1"),
        ("1", ["--rho0", "1,2", "--lambda", "1;1", "--mu", "0;0"],
         "rho eps part (1, 2) has length 2, expected 1"),
        ("2", ["--lambda", "2;1", "--mu", "0,0;0"],
         "lambda eps part (2,) has length 1, expected 2"),
    ],
    ids=["lambda-too-long", "rho-too-long", "lambda-too-short"],
)
def test_kostka_custom_checks_ranks(rank0, extra, message, capsys):
    """zip in the Weyl sum would drop extra entries, and a short vector
    failed deep inside it; the lengths are checked against the ranks first."""
    roots = "1;1" if rank0 == "1" else "1,0;1"
    argv = ["kostka-custom", "--roots", roots, "--simple", roots,
            "--rank0", rank0, "--rank1", "1", *extra]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cli_import_skips_dataclasses_and_inspect():
    """Importing the CLI pulls in neither module: together they were about
    two thirds of its import cost.  Nor does it load fractions or decimal,
    which only mat_inverse and pfaffian's rational branch import."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ospkostka.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    package_root = os.path.dirname(os.path.dirname(ospkostka.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    new = proc.stdout.split()
    assert "ospkostka.cli" in new
    assert "dataclasses" not in new
    assert "inspect" not in new
    assert "fractions" not in new
    assert "decimal" not in new


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_rejected(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moment-check", "-N", "3", "--trials", "2", f"--jobs={jobs}"])
    assert exc.value.code == 2
    assert f"argument --jobs: expected an integer >= 1, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option, minimum",
    [
        (["moment-check", "-N", "3", "--trials=-3"], "--trials", 0),
        (["verify-positivity", "-N", "3", "--box=-1"], "--box", 0),
        (["poset", "-N", "3", "--box=-1"], "--box", 0),
    ],
    ids=["moment-check-trials", "verify-positivity-box", "poset-box"],
)
def test_negative_counts_rejected(argv, option, minimum, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    value = argv[-1].partition("=")[2]
    assert (f"argument {option}: expected an integer >= {minimum}, got {value}"
            in capsys.readouterr().err)


def test_zero_trials_still_valid(capsys):
    assert main(["moment-check", "-N", "3", "--trials", "0"]) == 0
    assert capsys.readouterr().out == "moment-check N=3 trials=0 seed=42: ok\n"


# One text-mode invocation per subcommand, plus DOT under --format json.
TEXT_OUTPUTS = [
    (["roots", "-N", "4", "--odd"],
     "N = 4  shuffle = (1, 3, 2)\npositive odd roots:\n  1,0;1\n  0,1;1\n  1,0;-1\n"
     "  0,-1;1\nsimple odd roots:\n  1,0;-1\n  0,-1;1\n  0,1;1\n"),
    (["lpoly", "-N", "4", "--alpha", "1,0;1"], "q + q^3\n"),
    (["kostka", "-N", "3", "--lambda", "2;2", "--mu", "0;0"], "q^2\n"),
    (["kostka-custom", "--roots", "1;1 -1;1", "--simple", "-1;1 1;1", "--rank0", "1",
      "--rank1", "1", "--lambda", "1;1", "--mu", "0;0"], "q\n"),
    (["dominance", "-N", "3", "--lambda", "2;2", "--mu", "0;0"],
     "ge = True  certificate = [0, 2]\n"),
    (["closure", "-N", "3", "--lower", "0;0", "--upper", "1;1"], "le = True\n"),
    (["dim", "-N", "5", "--orbit", "1,0;1,0"], "dim = 5\n"),
    (["stalk", "-N", "5", "--lambda", "1,0;1,0", "--mu", "0,0;0,0"],
     "H^-1: 1\nH^-3: 2\nH^-5: 1\n"),
    (["poset", "-N", "3", "--box", "1"],
     "6 orbits, 4 cover relations\n  -1;0 < 0;1\n  0;0 < -1;1\n  0;0 < 1;1\n"
     "  1;0 < 0;1\n"),
    (["poset", "-N", "3", "--box", "1", "--dot", "--format", "json"],
     'digraph closure {\n  "-1;0";\n  "-1;1";\n  "0;0";\n  "0;1";\n  "1;0";\n'
     '  "1;1";\n  "-1;0" -> "0;1";\n  "0;0" -> "-1;1";\n  "0;0" -> "1;1";\n'
     '  "1;0" -> "0;1";\n}\n'),
    (["orbit-rep", "-N", "3", "--orbit", "1;1"],
     "mu = (1, -1)  nu = (1, 0, -1)\n  t^{-2} e1 + t^{-1} e3\n  t^{1} e2 + e3\n"
     "  t^{1} e3\n"),
    (["stabilizer", "-N", "3", "--orbit", "0;0"],
     "alpha = (0, 0, 0, 0, 0)\nbeta  = (0, 0, 0, 0)\nn = {'0': 4}\nm = {'0': 2}\n"
     "reductive quotient = SO_2\n"),
    (["char", "--type", "C", "--rank", "1", "--lambda", "2"],
     "dim = 3\n  (-2,): 1\n  (0,): 1\n  (2,): 1\n"),
    (["verify-bryl", "-N", "3", "--mu", "0;0", "--qmax", "2"],
     "verify-bryl N=3 mu=0;0 qmax=2: ok\n"),
    (["verify-positivity", "-N", "3", "--box", "1"],
     "verify-positivity N=3 box=1: 10 comparable pairs, ok\n"),
    (["moment-check", "-N", "3", "--trials", "2", "--seed", "5"],
     "moment-check N=3 trials=2 seed=5: ok\n"),
]


@pytest.mark.parametrize(
    "argv, stdout",
    TEXT_OUTPUTS,
    ids=[a[0] + ("-dot-json" if "--dot" in a else "") for a, _ in TEXT_OUTPUTS],
)
def test_text_output_pinned(argv, stdout, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""


def test_verification_failure_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "kostka_defect", lambda data, lam, mu, poly: "forced")
    assert main(["verify-positivity", "-N", "3", "--box", "1"]) == 1
    assert capsys.readouterr().out == (
        "verify-positivity N=3 box=1: 10 comparable pairs, 10 failures\n"
    )

    def failing_check(N, trials, seed, start=0):
        return {"N": N, "trials": trials, "char_identity": 0, "pfaffian_vanishing": 0,
                "fft_generators": 0, "equivariance": 1, "failures": trials, "ok": False}

    monkeypatch.setattr(cli_module.moment, "moment_check", failing_check)
    assert main(["moment-check", "-N", "3", "--trials", "2", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == 2


def _cold_kostka(monkeypatch):
    """A fresh Kostka memo and counters, so the next call computes."""
    monkeypatch.setattr(kostka_module, "_kostka_memo", {})
    kostka_module._counter.cache_clear()


def _positivity_reference(N, box, defect):
    """verify-positivity's JSON payload built pair by pair, lam-major:
    dominance_ge, then kostka and the defect check on each comparable
    pair."""
    data = oddroots.osp_root_data(N)
    labels = list(product(roots.dominant_weights(data.type0, box),
                          roots.dominant_weights(data.type1, box)))
    comparable, failures = 0, []
    for lam in labels:
        for mu in labels:
            if oddroots.dominance_ge(data, lam, mu):
                comparable += 1
                poly = kostka_module.kostka(data, lam, mu)
                bad = defect(data, lam, mu, poly)
                if bad:
                    failures.append({"lambda": [list(lam[0]), list(lam[1])],
                                     "mu": [list(mu[0]), list(mu[1])],
                                     "reason": bad, "poly": {"coeffs": list(poly.coeffs)}})
    return {"N": N, "box": box, "pairs": len(labels) ** 2, "comparable": comparable,
            "ok": not failures, "failures": failures}


def _planted_defect(data, lam, mu, poly):
    """Fails the pairs whose polynomial has odd degree, a strict subset."""
    if poly.degree % 2:
        return f"planted at degree {poly.degree}"
    return kostka_module.kostka_defect(data, lam, mu, poly)


@pytest.mark.parametrize("N, box", [(3, 0), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2),
                                    (5, 1), (5, 2), (6, 1), (7, 1)])
def test_verify_positivity_matches_pair_by_pair(N, box, monkeypatch, capsys):
    """The per-mu columns give the payload of the pair-by-pair reference,
    from cold memos on both sides; with a defect planted on some pairs the
    failures come in the same lam-major order with the same content."""
    argv = ["verify-positivity", "-N", str(N), "--box", str(box), "--format", "json"]
    for defect in (kostka_module.kostka_defect, _planted_defect):
        monkeypatch.setattr(cli_module, "kostka_defect", defect)
        _cold_kostka(monkeypatch)
        code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        _cold_kostka(monkeypatch)
        assert payload == _positivity_reference(N, box, defect)
        assert code == (0 if payload["ok"] else 1)
    if box:
        assert 0 < len(payload["failures"]) < payload["comparable"]


def test_verify_positivity_reads_columns_not_pairs(monkeypatch, capsys):
    """verify-positivity reads the labels above each mu from the per-factor
    shares and one Kostka column per mu: neither the pairwise dominance
    test nor the one-pair kostka is called."""
    def refuse(*args):
        raise AssertionError("per-pair call")

    monkeypatch.setattr(oddroots, "dominance_ge", refuse)
    monkeypatch.setattr(cli_module, "kostka_poly", refuse)
    assert main(["verify-positivity", "-N", "4", "--box", "2"]) == 0
    assert capsys.readouterr().out == (
        "verify-positivity N=4 box=2: 147 comparable pairs, ok\n"
    )


def test_cache_file_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(kostka_module, "_kostka_memo", {})
    path = tmp_path / "cache.json"
    assert main(["kostka", "-N", "3", "--lambda", "1;1", "--mu", "0;0",
                 "--cache", str(path)]) == 0
    assert path.read_text() == (
        '{"entries": {"3|K|1|1|0|0": [0, 1]}, "version": "ospkostka-cache-1"}'
    )


def test_impossible_cache_entry_is_recomputed(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cache.json"
    cache_store(path, {"3|K|1|1|0|0": [7, 7, 7]})
    args = ("kostka", "-N", "3", "--lambda", "1;1", "--mu", "0;0", "--format", "json")
    code, out, _ = run_cli(*args, "--cache", str(path))
    assert code == 0
    assert json.loads(out) == {"poly": {"coeffs": [0, 1]}}
    assert cache_load(path) == {"3|K|1|1|0|0": [0, 1]}
    # In one process the entry must not reach the memo that later calls read.
    cache_store(path, {"3|K|1|1|0|0": [7, 7, 7]})
    monkeypatch.setattr(kostka_module, "_kostka_memo", {})
    assert main([*args, "--cache", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"poly": {"coeffs": [0, 1]}}
    data = ospkostka.osp_root_data(3)
    assert ospkostka.kostka(data, ((1,), (1,)), ((0,), (0,))).coeffs == (0, 1)


# Every subcommand's options in --help order (help aside), and the required ones.
OPTION_TABLE = {
    "roots": ("--format -N --odd --family --rank", ""),
    "lpoly": ("--format -N --alpha", "-N --alpha"),
    "kostka": ("--format --cache -N --lambda --mu", "-N --lambda --mu"),
    "kostka-custom": (
        "--format --roots --simple --family0 --rank0 --family1 --rank1 --rho0 --rho1"
        " --lambda --mu",
        "--roots --simple --rank0 --rank1 --lambda --mu",
    ),
    "dominance": ("--format -N --lambda --mu", "-N --lambda --mu"),
    "closure": ("--format -N --lower --upper", "-N --lower --upper"),
    "dim": ("--format -N --orbit", "-N --orbit"),
    "stalk": ("--format --cache -N --lambda --mu", "-N --lambda --mu"),
    "poset": ("--format -N --box --dot", "-N"),
    "orbit-rep": ("--format -N --orbit", "-N --orbit"),
    "stabilizer": ("--format -N --orbit", "-N --orbit"),
    "char": ("--format --type --rank --lambda", "--type --rank --lambda"),
    "verify-bryl": ("--format --cache -N --mu --qmax", "-N --mu --qmax"),
    "verify-positivity": ("--format --cache -N --box", "-N"),
    "moment-check": ("--format -N --trials --seed --jobs", "-N"),
}


def test_option_table():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTION_TABLE)
    for name, sp in sub.choices.items():
        actions = [a for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        options = [s for a in actions for s in a.option_strings]
        required = [s for a in actions if a.required for s in a.option_strings]
        assert (" ".join(options), " ".join(required)) == OPTION_TABLE[name], name


def naive_covers(data, labels):
    """Transitive reduction of closure_le: a < b with no c strictly between."""
    below = {(a, b) for a in labels for b in labels
             if a != b and orbits.closure_le(data, a, b)}
    return sorted(
        [str(a), str(b)] for a, b in below
        if not any((a, c) in below and (c, b) in below for c in labels)
    )


def assert_poset_renders(N, box, nodes, edges, capsys):
    """The JSON payload, the text listing and the DOT graph of `poset`."""
    argv = ["poset", "-N", str(N), "--box", str(box)]
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"nodes": nodes, "edges": edges}
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{len(nodes)} orbits, {len(edges)} cover relations",
        *(f"  {a} < {b}" for a, b in edges),
    ]
    assert main([*argv, "--dot"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "digraph closure {",
        *(f'  "{node}";' for node in nodes),
        *(f'  "{a}" -> "{b}";' for a, b in edges),
        "}",
    ]


@pytest.mark.parametrize(
    "N, box", [(N, 1) for N in range(3, 8)] + [(N, 2) for N in range(3, 8)]
)
def test_poset_covers_match_naive_reduction(N, box, capsys):
    data = ospkostka.osp_root_data(N)
    labels = orbits.orbit_labels_in_box(data, box)
    nodes = sorted(str(l) for l in labels)
    assert_poset_renders(N, box, nodes, naive_covers(data, labels), capsys)


def test_poset_reads_no_pair_check(monkeypatch, capsys):
    """poset walks the labels above each label; it never asks closure_le or
    dominance_ge about one pair."""
    data = ospkostka.osp_root_data(5)
    labels = orbits.orbit_labels_in_box(data, 2)
    nodes, edges = sorted(str(l) for l in labels), naive_covers(data, labels)

    def forbidden(*args):
        raise AssertionError("pair check")

    monkeypatch.setattr(orbits, "closure_le", forbidden)
    monkeypatch.setattr(oddroots, "dominance_ge", forbidden)
    assert_poset_renders(5, 2, nodes, edges, capsys)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_dominance_certificate_exactly_when_ge(N, capsys):
    data = ospkostka.osp_root_data(N)
    box = [(lam0, lam1)
           for lam0 in roots.dominant_weights(data.type0, 1)
           for lam1 in roots.dominant_weights(data.type1, 1)]

    def arg(pair):
        return ";".join(",".join(map(str, part)) for part in pair)

    comparable = 0
    for lam in box:
        for mu in box:
            assert main(["dominance", "-N", str(N), f"--lambda={arg(lam)}",
                         f"--mu={arg(mu)}", "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["ge"] == oddroots.dominance_ge(data, lam, mu)
            assert (payload["certificate"] is not None) == payload["ge"]
            if payload["ge"]:
                comparable += 1
                coords = oddroots.simple_root_coordinates(
                    data, oddroots.BiWeight(*lam) - oddroots.BiWeight(*mu))
                assert payload["certificate"] == list(coords)
    assert comparable > len(box)  # some pair off the diagonal is comparable
