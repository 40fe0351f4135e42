import json
import os
import subprocess
import sys

import pytest

import ospkostka
from ospkostka.cli import (
    CACHE_ENV,
    cache_load,
    cache_store,
    main,
    parse_biweight,
    UsageError,
)


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
    assert "expected an integer" in err
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


def test_closure_command():
    code, out, _ = run_cli("closure", "-N", "3", "--lower", "0;0", "--upper", "1;1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"le": True}
    code, out, _ = run_cli("closure", "-N", "3", "--lower", "0;0", "--upper", "1;0",
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"le": False}


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
    for jobs in ("1", "2"):
        code, out, _ = run_cli("moment-check", "-N", "3", "--trials", "8",
                               "--seed", "5", "--jobs", jobs, "--format", "json")
        assert code == 0
        runs.append(out)
    # exact merges make the payload byte-identical across worker counts
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["ok"]


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
    path = tmp_path / "cache.json"
    path.write_text("not json")
    code, out, err = run_cli("kostka", "-N", "3", "--lambda", "1;1", "--mu", "0;0",
                             "--cache", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"poly": {"coeffs": [0, 1]}}
    assert "ignoring unreadable cache" in err


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
