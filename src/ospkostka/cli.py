"""Command-line front end.

Weight-vector arguments use the syntax "a1,a2;b1,b2": the semicolon
separates the eps block from the delta block (orbit labels read the same
way as lam_s;lam_b).  Values with a leading minus need the
--flag=value form, e.g. --lambda=-1;1.  Output is human-readable text by
default or JSON with --format json.  Exit codes: 0 success,
1 verification failure, 2 usage or parse error.

A command is declared once, as one entry of COMMANDS: its name, its help
line, and its options, the shared ones (--cache, -N, --lambda, --mu) among
them; its handler is cmd_<name>.  build_parser() builds every subparser
from these entries and build_parser(name) only that command's, under the
same top-level parser.  main first reads a plain command line (the
command's exact option strings, values after "--opt=" or not starting
with "-") from its COMMANDS entry into the namespace argparse would give,
without importing argparse; any other line (help, "--", abbreviations,
negative numbers as separate values, every error) goes to the parser
that argv[0] names, which alone prints help, usage and errors.  main imports json
only for --format json or a cache, and a handler imports characters,
euler or orbits only when it calls them.  main reads and writes the cache
only for commands that take --cache, checks only the entries of the
command's rank -N, and writes it only when the run's entries differ from
those it read.
"""

import os
import sys
import types

from . import moment, oddroots, roots
from .kostka import (
    _kostka_column,
    kostka as kostka_poly,
    kostka_custom,
    kostka_defect,
    kostka_memo_export,
    kostka_memo_import,
    l_poly,
)

CACHE_VERSION = "ospkostka-cache-1"
CACHE_ENV = "OSP_KOSTKA_CACHE"


class UsageError(ValueError):
    pass


def parse_int_vector(text, what="vector"):
    text = text.strip()
    if text == "":
        return ()
    out = []
    for pos, piece in enumerate(text.split(",")):
        try:
            out.append(int(piece))
        except ValueError:
            raise UsageError(
                f"bad {what} {text!r}: expected an integer at position {pos}, got {piece!r}"
            ) from None
    return tuple(out)


def parse_biweight(text, data=None, what="weight"):
    if ";" not in text:
        raise UsageError(
            f"bad {what} {text!r}: expected 'eps;delta' with comma-separated integers"
        )
    eps_text, _, delta_text = text.partition(";")
    eps = parse_int_vector(eps_text, what=f"{what} eps part")
    delta = parse_int_vector(delta_text, what=f"{what} delta part")
    if data is not None:
        for part, vec, rank in (("eps", eps, data.eps_rank), ("delta", delta, data.delta_rank)):
            if len(vec) != rank:
                raise UsageError(
                    f"{what} {part} part {vec} has length {len(vec)}, N={data.N} needs {rank}"
                )
    return eps, delta


def parse_orbit_label(text, data, what="orbit"):
    from . import orbits

    if ";" not in text:
        raise UsageError(f"bad {what} {text!r}: expected 'lam_s;lam_b'")
    s_text, _, b_text = text.partition(";")
    label = orbits.OrbitLabel(
        parse_int_vector(s_text, what=f"{what} lam_s"),
        parse_int_vector(b_text, what=f"{what} lam_b"),
    )
    ranks = orbits._swap_sides(data, (data.eps_rank, data.delta_rank))
    for half, vec, rank in zip(label._fields, label, ranks):
        if len(vec) != rank:
            raise UsageError(
                f"{what} {half} {vec} has length {len(vec)}, N={data.N} needs {rank}"
            )
    orbits.validate_label(data, label)
    return label


def poly_json(poly):
    return {"coeffs": list(poly.coeffs)}


def char_json(ch):
    return [
        {"weight": list(w), "mult": m} for w, m in sorted(ch.terms.items())
    ]


# ---------------------------------------------------------------- cache

def cache_load(path):
    """Load the polynomial cache; unknown versions and unreadable files
    fall back to a cold run with a warning."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as exc:
        # ValueError: bad JSON, bytes that are not UTF-8, or an integer
        # longer than int() accepts.
        print(f"warning: ignoring unreadable cache {path}: {exc}", file=sys.stderr)
        return {}
    if not isinstance(raw, dict) or raw.get("version") != CACHE_VERSION:
        return {}
    entries = raw.get("entries", {})
    return entries if isinstance(entries, dict) else {}


def cache_store(path, entries):
    """Write the cache to a per-process temporary file beside it, then move
    that over the old file, so a crash mid-write leaves the old file whole."""
    import json

    payload = {"version": CACHE_VERSION, "entries": dict(sorted(entries.items()))}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------- commands
#
# Each cmd_* returns (payload, render); main prints the payload as JSON or
# as render(payload), and sets the exit code.

def cmd_roots(args):
    if args.odd:
        if args.N is None:
            raise UsageError("roots --odd requires -N")
        if args.family is not None or args.rank is not None:
            raise UsageError("roots --odd takes -N, not --family or --rank")
        data = oddroots.osp_root_data(args.N)
        payload = {
            "N": args.N,
            "shuffle": list(oddroots.shuffle(data)),
            "odd_positive_roots": [str(b) for b in oddroots.odd_positive_roots(data)],
            "simple_odd_roots": [str(b) for b in oddroots.simple_odd_roots(data)],
        }

        def render(p):
            lines = [f"N = {p['N']}  shuffle = {tuple(p['shuffle'])}"]
            lines.append("positive odd roots:")
            lines.extend(f"  {r}" for r in p["odd_positive_roots"])
            lines.append("simple odd roots:")
            lines.extend(f"  {r}" for r in p["simple_odd_roots"])
            return "\n".join(lines)

        return payload, render
    if args.family is None or args.rank is None:
        raise UsageError("roots requires either --odd with -N, or --family and --rank")
    if args.N is not None:
        raise UsageError("roots --family/--rank takes no -N")
    gtype = roots.GroupType(args.family, args.rank)
    payload = {
        "type": str(gtype),
        "positive_roots": [list(r) for r in roots.positive_roots(gtype)],
        "rho": list(roots.rho(gtype)),
        "weyl_order": roots.weyl_order(gtype),
    }

    def render(p):
        lines = [f"type {p['type']}  |W| = {p['weyl_order']}  rho = {tuple(p['rho'])}"]
        lines.append("positive roots:")
        lines.extend(f"  {tuple(r)}" for r in p["positive_roots"])
        return "\n".join(lines)

    return payload, render


def cmd_lpoly(args):
    data = oddroots.osp_root_data(args.N)
    eps, delta = parse_biweight(args.alpha, data, "alpha")
    poly = l_poly(data, oddroots.BiWeight(eps, delta))
    return {"poly": poly_json(poly)}, lambda p: str(poly)


def cmd_kostka(args):
    data = oddroots.osp_root_data(args.N)
    lam = parse_biweight(args.lam, data, "lambda")
    mu = parse_biweight(args.mu, data, "mu")
    poly = kostka_poly(data, lam, mu)
    return {"poly": poly_json(poly)}, lambda p: str(poly)


def cmd_kostka_custom(args):
    root_list = [
        oddroots.BiWeight(*parse_biweight(t, what="root")) for t in args.roots.split()
    ]
    simple_list = [
        oddroots.BiWeight(*parse_biweight(t, what="simple root"))
        for t in args.simple.split()
    ]
    type0 = roots.GroupType(args.family0, args.rank0)
    type1 = roots.GroupType(args.family1, args.rank1)
    rho_pair = (
        parse_int_vector(args.rho0, "rho0") if args.rho0 else roots.rho(type0),
        parse_int_vector(args.rho1, "rho1") if args.rho1 else roots.rho(type1),
    )
    lam = parse_biweight(args.lam, what="lambda")
    mu = parse_biweight(args.mu, what="mu")
    poly = kostka_custom(root_list, simple_list, type0, type1, rho_pair, lam, mu)
    return {"poly": poly_json(poly)}, lambda p: str(poly)


def cmd_dominance(args):
    data = oddroots.osp_root_data(args.N)
    lam = parse_biweight(args.lam, data, "lambda")
    mu = parse_biweight(args.mu, data, "mu")
    ge = oddroots.dominance_ge(data, lam, mu)
    # lam >= mu exactly when lam - mu has simple-root coordinates.
    certificate = list(oddroots.simple_root_coordinates(
        data, oddroots.BiWeight(*lam) - oddroots.BiWeight(*mu))) if ge else None
    payload = {"ge": ge, "certificate": certificate}
    return payload, lambda p: f"ge = {p['ge']}  certificate = {p['certificate']}"


def cmd_closure(args):
    from . import orbits

    data = oddroots.osp_root_data(args.N)
    lower = parse_orbit_label(args.lower, data, "lower")
    upper = parse_orbit_label(args.upper, data, "upper")
    le = orbits.closure_le(data, lower, upper)
    return {"le": le}, lambda p: f"le = {p['le']}"


def cmd_dim(args):
    from . import orbits

    data = oddroots.osp_root_data(args.N)
    label = parse_orbit_label(args.orbit, data)
    return {"dim": orbits.orbit_dim(data, label)}, lambda p: f"dim = {p['dim']}"


def cmd_stalk(args):
    from . import orbits

    data = oddroots.osp_root_data(args.N)
    lam = parse_orbit_label(args.lam, data, "lambda orbit")
    mu = parse_orbit_label(args.mu, data, "mu orbit")
    table = orbits.stalk_poincare(data, lam, mu)
    payload = {"stalk": [{"degree": d, "dim": m} for d, m in table]}

    def render(p):
        return "\n".join(f"H^{e['degree']}: {e['dim']}" for e in p["stalk"])

    return payload, render


def cmd_poset(args):
    from . import orbits

    data = oddroots.osp_root_data(args.N)
    boxes = [list(roots.dominant_weights(t, args.box)) for t in (data.type0, data.type1)]
    pairs = [(lam0, lam1) for lam0 in boxes[0] for lam1 in boxes[1]]
    # one walk per (eps, delta) pair over the pairs above it; names are the labels
    above = {a: set(oddroots._labels_above(data, a, *boxes)) - {a} for a in pairs}
    name = {a: str(orbits.OrbitLabel(*orbits._swap_sides(data, a))) for a in pairs}
    # Hasse edges: b covers a when no c strictly above a lies below b.
    payload = {
        "nodes": sorted(name.values()),
        "edges": sorted([name[a], name[b]] for a in pairs for b in above[a]
                        if not any(b in above[c] for c in above[a])),
    }

    def render(p):
        lines = [f"{len(p['nodes'])} orbits, {len(p['edges'])} cover relations"]
        lines.extend(f"  {a} < {b}" for a, b in p["edges"])
        return "\n".join(lines)

    def render_dot(p):
        lines = ["digraph closure {"]
        lines.extend(f'  "{node}";' for node in p["nodes"])
        lines.extend(f'  "{a}" -> "{b}";' for a, b in p["edges"])
        lines.append("}")
        return "\n".join(lines)

    return payload, render_dot if args.dot else render


def cmd_orbit_rep(args):
    from . import orbits

    data = oddroots.osp_root_data(args.N)
    label = parse_orbit_label(args.orbit, data)
    mu, nu = orbits.embed_signatures(data, label)
    model = orbits.lattice_representative(mu, nu)
    payload = {
        "mu": list(mu.entries),
        "nu": list(nu.entries),
        "inverted": mu.inverted or nu.inverted,
        "generators": [str(r) for r in model.rows],
    }

    def render(p):
        lines = [f"mu = {tuple(p['mu'])}  nu = {tuple(p['nu'])}"]
        lines.extend(f"  {g}" for g in p["generators"])
        return "\n".join(lines)

    return payload, render


def cmd_stabilizer(args):
    from . import orbits

    data = oddroots.osp_root_data(args.N)
    label = parse_orbit_label(args.orbit, data)
    mu, nu = orbits.embed_signatures(data, label)
    stab = orbits.shuffled_alpha_beta(data, mu, nu)
    payload = {
        "alpha": list(stab.alpha),
        "beta": list(stab.beta),
        "n": {str(k): v for k, v in stab.n_mult.items()},
        "m": {str(k): v for k, v in stab.m_mult.items()},
        "reductive": stab.reductive,
    }

    def render(p):
        return (
            f"alpha = {tuple(p['alpha'])}\n"
            f"beta  = {tuple(p['beta'])}\n"
            f"n = {p['n']}\nm = {p['m']}\n"
            f"reductive quotient = {p['reductive']}"
        )

    return payload, render


def cmd_char(args):
    from . import characters

    gtype = roots.GroupType(args.type, args.rank)
    lam = parse_int_vector(args.lam, "lambda")
    ch = characters.irreducible_character(gtype, lam)
    payload = {"dim": ch.dim(), "weights": char_json(ch)}

    def render(p):
        lines = [f"dim = {p['dim']}"]
        lines.extend(f"  {tuple(e['weight'])}: {e['mult']}" for e in p["weights"])
        return "\n".join(lines)

    return payload, render


def cmd_verify_bryl(args):
    from . import euler

    data = oddroots.osp_root_data(args.N)
    mu = parse_biweight(args.mu, data, "mu")
    report = euler.verify_bryl(data, mu, args.qmax)
    payload = {
        "N": args.N,
        "mu": [list(mu[0]), list(mu[1])],
        "qmax": args.qmax,
        "ok": report.ok,
        "degree_diffs": [char_json(d) for d in report.degree_diffs],
    }

    def render(p):
        status = "ok" if p["ok"] else f"MISMATCH at degrees {report.failing_degrees()}"
        return f"verify-bryl N={p['N']} mu={args.mu} qmax={p['qmax']}: {status}"

    return payload, render


def cmd_verify_positivity(args):
    data = oddroots.osp_root_data(args.N)
    boxes = [list(roots.dominant_weights(t, args.box)) for t in (data.type0, data.type1)]
    labels = [(lam0, lam1) for lam0 in boxes[0] for lam1 in boxes[1]]
    # one Kostka column per mu over the labels above it; failures stay lam-major
    columns = {mu: _kostka_column(data, oddroots._labels_above(data, mu, *boxes), mu)
               for mu in labels}
    failures = []
    for lam in labels:
        for mu in labels:
            poly = columns[mu].get(lam)
            bad = poly is not None and kostka_defect(data, lam, mu, poly)
            if bad:
                failures.append(
                    {"lambda": [list(lam[0]), list(lam[1])],
                     "mu": [list(mu[0]), list(mu[1])],
                     "reason": bad,
                     "poly": poly_json(poly)}
                )
    payload = {
        "N": args.N,
        "box": args.box,
        "pairs": len(labels) ** 2,
        "comparable": sum(map(len, columns.values())),
        "ok": not failures,
        "failures": failures,
    }

    def render(p):
        status = "ok" if p["ok"] else f"{len(p['failures'])} failures"
        return (
            f"verify-positivity N={p['N']} box={p['box']}: "
            f"{p['comparable']} comparable pairs, {status}"
        )

    return payload, render


def cmd_moment_check(args):
    if args.jobs > 1 and args.trials > 1:
        reports = _parallel_moment(args.N, args.trials, args.seed, args.jobs)
    else:
        reports = [moment.moment_check(args.N, args.trials, args.seed)]
    merged = _merge_moment_reports(args.N, reports)

    def render(p):
        status = "ok" if p["ok"] else f"{p['failures']} failures"
        return (
            f"moment-check N={p['N']} trials={p['trials']} seed={args.seed}: {status}"
        )

    return merged, render


def _parallel_moment(N, trials, seed, jobs):
    """Split the trials into contiguous index ranges; the one starting at 0
    runs the spot check.  Each trial's RNG depends only on (seed, index),
    so the merged counters are those of the serial run."""
    chunk = (trials + jobs - 1) // jobs
    tasks = [(N, min(chunk, trials - start), seed, start) for start in range(0, trials, chunk)]
    try:
        import multiprocessing

        with multiprocessing.Pool(min(jobs, len(tasks), os.cpu_count() or 1)) as pool:
            return pool.starmap(moment.moment_check, tasks)
    except (ImportError, OSError):
        return [moment.moment_check(*t) for t in tasks]


def _merge_moment_reports(N, reports):
    counters = ("trials", "char_identity", "pfaffian_vanishing", "fft_generators", "failures")
    merged = {key: sum(r[key] for r in reports) for key in counters}
    merged.update(N=N, equivariance=int(all(r["equivariance"] for r in reports)))
    merged["ok"] = merged["failures"] == 0
    return merged


# ---------------------------------------------------------------- parser

def int_at_least(minimum):
    """argparse type: an integer that is at least `minimum`."""

    def parse(text):
        value = int(text)
        if value < minimum:
            import argparse

            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _opt(*flags, **spec):
    """One option: its flags and the keywords of add_argument."""
    return flags, spec


# Options shared by several commands.  --format comes first on every
# command; the others are listed in a command's entry below.
FORMAT = _opt("--format", choices=("text", "json"), default="text")
CACHE = _opt("--cache", help=f"polynomial cache file (default: ${CACHE_ENV})")
RANK = _opt("-N", type=int, required=True)
LAMBDA = _opt("--lambda", dest="lam", required=True)
MU = _opt("--mu", required=True)

# Each command, in --help order: its help line and its options after
# --format, in --help order.  Its handler is cmd_<name> with "-" read as
# "_".  main reads and writes the polynomial cache for exactly the commands
# that take CACHE.
COMMANDS = {
    "roots": ("positive roots of D/C factors or the odd system", [
        _opt("-N", type=int, default=None),
        _opt("--odd", action="store_true"),
        _opt("--family", choices=("D", "C"), default=None),
        _opt("--rank", type=int, default=None),
    ]),
    "lpoly": ("partition polynomial of a lattice vector", [
        RANK, _opt("--alpha", required=True)]),
    "kostka": ("orthosymplectic Kostka polynomial", [CACHE, RANK, LAMBDA, MU]),
    "kostka-custom": ("Kostka sum for a custom root set", [
        _opt("--roots", required=True, help="space-separated eps;delta vectors"),
        _opt("--simple", required=True, help="space-separated eps;delta vectors"),
        _opt("--family0", choices=("D", "C"), default="D"),
        _opt("--rank0", type=int, required=True),
        _opt("--family1", choices=("D", "C"), default="C"),
        _opt("--rank1", type=int, required=True),
        _opt("--rho0", default=None),
        _opt("--rho1", default=None),
        LAMBDA, MU,
    ]),
    "dominance": ("dominance order with cone certificate", [RANK, LAMBDA, MU]),
    "closure": ("orbit closure order", [
        RANK, _opt("--lower", required=True), _opt("--upper", required=True)]),
    "dim": ("orbit dimension", [RANK, _opt("--orbit", required=True)]),
    "stalk": ("IC stalk Poincare table", [CACHE, RANK, LAMBDA, MU]),
    "poset": ("closure order on a box of orbit labels", [
        RANK,
        _opt("--box", type=int_at_least(0), default=2),
        _opt("--dot", action="store_true", help="emit DOT text"),
    ]),
    "orbit-rep": ("lattice representative of an orbit", [
        RANK, _opt("--orbit", required=True)]),
    "stabilizer": ("stabilizer data of an orbit", [RANK, _opt("--orbit", required=True)]),
    "char": ("irreducible character table", [
        _opt("--type", choices=("D", "C"), required=True),
        _opt("--rank", type=int, required=True),
        LAMBDA,
    ]),
    "verify-bryl": ("compare the two Euler series", [
        CACHE, RANK, MU, _opt("--qmax", type=int, required=True)]),
    "verify-positivity": ("Kostka positivity on a box", [
        CACHE, RANK, _opt("--box", type=int_at_least(0), default=3)]),
    "moment-check": ("moment map identity trials", [
        RANK,
        _opt("--trials", type=int_at_least(0), default=1000),
        _opt("--seed", type=int, default=42),
        _opt("--jobs", type=int_at_least(1), default=1,
             help="worker processes for trial batches"),
    ]),
}


def build_parser(command=None):
    """The parser of every command, or with `command` the same top-level
    parser holding that one command's subparser alone."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ospkostka",
        description="Exact orthosymplectic Kostka polynomials and orbit tables.",
    )
    # The one-command parser names every command in its usage, so an error
    # it reports at the top level (an unrecognized argument) reads as the
    # full parser's; the full parser derives the same text from its choices.
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        summary, options = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for flags, spec in (FORMAT, *options):
            p.add_argument(*flags, **spec)
        p.set_defaults(func=_handler(name))
    return parser


def _handler(name):
    # Looked up at parse time, so a handler rebound after import
    # (benchmarks/tracer.py wraps them) is the one called.
    return globals()["cmd_" + name.replace("-", "_")]


def _dest(flags, spec):
    """argparse's dest of an option: its dest keyword, or else its first
    long flag (its first flag if it has none) without the dashes."""
    long_flags = [f for f in flags if f.startswith("--")]
    return spec.get("dest") or (long_flags or flags)[0].lstrip("-").replace("-", "_")


def read_argv(argv):
    """The namespace build_parser(argv[0]).parse_args(argv) gives, read
    from argv[0]'s COMMANDS entry, for a command line of the plain forms
    alone: the command's exact option strings, each value either after
    "--opt=" or as the next token when that does not start with "-" (or
    is a list such as "-1;1 1;1"), and store_true flags without "=".
    None for any other line, and for a bad type or choice or a missing
    required option, which main leaves to argparse."""
    name, tokens = argv[0], iter(argv[1:])
    options = [(flags, spec, _dest(flags, spec)) for flags, spec in (FORMAT, *COMMANDS[name][1])]
    by_flag = {flag: (spec, dest) for flags, spec, dest in options for flag in flags}
    values = {}
    for token in tokens:
        flag, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        if flag not in by_flag:
            return None
        spec, dest = by_flag[flag]
        if spec.get("action") == "store_true":
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            # argparse reads a token starting with "-" as a value only when
            # it is a negative number, or holds a space and starts with no
            # option string; the latter is taken here if it starts with one
            # dash and its first two characters are neither -h nor a flag.
            if value is None or value.startswith("-") and not (
                    " " in value and value[1] != "-" and value[:2] not in (*by_flag, "-h")):
                return None
        elif value == "--":  # argparse drops it from --opt=-- and stores []
            return None
        try:
            value = spec.get("type", str)(value)
        except Exception:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    for _, spec, dest in options:
        if dest not in values:
            if spec.get("required"):
                return None
            values[dest] = spec.get("default", False if spec.get("action") == "store_true" else None)
    return types.SimpleNamespace(command=name, func=_handler(name), **values)


def _key_rank(key):
    """The rank N a cache key starts with, parsed as kostka_memo_import
    parses it, or None."""
    try:
        return int(key.partition("|")[0])
    except ValueError:
        return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # A plain command line is read without argparse.  Any other line that
    # starts with a command's name gets that command's subparser alone;
    # anything else (no argv, -h, an unknown name) gets the full parser and
    # its help and errors.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = read_argv(argv) if command else None
    if args is None:
        args = build_parser(command).parse_args(argv)
    # Only the commands that take CACHE have args.cache, and each takes -N.
    cache_path = (args.cache or os.environ.get(CACHE_ENV)) if hasattr(args, "cache") else None
    if cache_path:
        loaded = cache_load(cache_path)
        # The command reads only its own rank's entries: the others are
        # neither checked nor memoised, and are stored back as they were.
        other_rank = {key: coeffs for key, coeffs in loaded.items()
                      if _key_rank(key) not in (None, args.N)}
        kostka_memo_import({key: coeffs for key, coeffs in loaded.items()
                            if key not in other_rank})
    try:
        payload, render = args.func(args)
    except ValueError as exc:
        # UsageError and library validation errors (rank guards, bad
        # weights) are both usage problems at this surface
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # poset --dot prints DOT whatever --format says.
    if args.format == "json" and not getattr(args, "dot", False):
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        print(render(payload))
    if cache_path:
        # A run that only read entries from the file leaves it untouched;
        # one that skipped a malformed or impossible entry rewrites it.
        entries = {**other_rank, **kostka_memo_export()}
        if entries != loaded:
            try:
                cache_store(cache_path, entries)
            except OSError as exc:
                print(f"warning: could not write cache {cache_path}: {exc}", file=sys.stderr)
    return 1 if payload.get("ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
