"""Span recorder for the traced benchmark runs.

``Recorder.install`` wraps the library's public functions from outside: a
module-level function is replaced at every binding site in the package (so
``orbits.kostka``, ``euler.kostka`` and ``cli.kostka_poly`` are wrapped along
with ``kostka.kostka``), and a method on its class.  Each call records one
span ``(name, start, end, parent, value)``; ``value`` is a per-call outcome
(a hit flag or a result size) used for ratios.  Spans stay in memory and are
written out once, at the end of the process.

``Totals`` sums written spans into per-name counts and self times (a span's
duration minus the time its direct child spans cover), and ``layer_metrics``
names them as the benchmark's per-layer metrics.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("roots", "oddroots", "kostka", "characters", "euler", "orbits", "moment", "cli")


def _found(result):
    return int(result is not None)


def _nonzero(result):
    return int(bool(result))


# (module, attribute or Class.method, span name, outcome of one call)
TARGETS = (
    ("oddroots", "ConeSolver.coordinates", "oddroots.cone", _found),
    ("oddroots", "dominance_ge", "oddroots.dominance", None),
    ("kostka", "kostka", "kostka.kostka", _nonzero),
    ("kostka", "PartitionCounter.l_poly_flat", "kostka.lpoly", _nonzero),
    ("kostka", "partition_support_table", "kostka.support_table", None),
    ("roots", "weyl_elements", "roots.weyl_elements", None),
    ("roots", "act", "roots.act", None),
    ("characters", "irreducible_character", "characters.irreducible", None),
    ("characters", "outer", "characters.outer", None),
    ("characters", "CharElt.add_scaled", "characters.add_scaled", None),
    ("characters", "decompose", "characters.decompose", None),
    ("euler", "bryl_lhs", "euler.lhs", None),
    ("euler", "bryl_rhs", "euler.rhs", None),
    ("euler", "dominant_cone_labels", "euler.cone_labels", len),
    ("orbits", "closure_le", "orbits.closure", None),
    ("orbits", "stalk_poincare", "orbits.stalk", None),
    ("moment", "moment_check", "moment.check", None),
    ("moment", "mat_mul", "moment.mat_mul", None),
    ("moment", "mat_inverse", "moment.mat_inverse", None),
    ("moment", "char_poly", "moment.char_poly", None),
    ("moment", "pfaffian", "moment.pfaffian", None),
    ("moment", "verify_fft_generators", "moment.fft", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cache_load", "cli.cache_load", None),
    ("cli", "cache_store", "cli.cache_store", None),
)

# Per-layer metrics in report order, with units.
LAYER_METRICS = (
    ("oddroots.cone_calls", "count"),
    ("oddroots.cone_hit_ratio", "ratio"),
    ("oddroots.cone_self_s", "s"),
    ("oddroots.dominance_calls", "count"),
    ("oddroots.dominance_self_s", "s"),
    ("kostka.kostka_calls", "count"),
    ("kostka.kostka_self_s", "s"),
    ("kostka.weyl_pairs", "count"),
    ("kostka.weyl_pair_hit_ratio", "ratio"),
    ("kostka.lpoly_self_s", "s"),
    ("kostka.memo_hit_ratio", "ratio"),
    ("kostka.support_table_self_s", "s"),
    ("roots.weyl_elements_calls", "count"),
    ("roots.act_calls", "count"),
    ("characters.irreducible_calls", "count"),
    ("characters.irreducible_self_s", "s"),
    ("characters.outer_calls", "count"),
    ("characters.outer_self_s", "s"),
    ("characters.add_scaled_calls", "count"),
    ("characters.add_scaled_self_s", "s"),
    ("characters.decompose_calls", "count"),
    ("characters.decompose_self_s", "s"),
    ("euler.lhs_self_s", "s"),
    ("euler.rhs_self_s", "s"),
    ("euler.cone_labels", "count"),
    ("euler.label_hit_ratio", "ratio"),
    ("orbits.closure_calls", "count"),
    ("orbits.closure_self_s", "s"),
    ("orbits.stalk_calls", "count"),
    ("orbits.stalk_self_s", "s"),
    ("moment.check_calls", "count"),
    ("moment.mat_mul_calls", "count"),
    ("moment.mat_mul_self_s", "s"),
    ("moment.mat_inverse_calls", "count"),
    ("moment.mat_inverse_self_s", "s"),
    ("moment.char_poly_self_s", "s"),
    ("moment.pfaffian_self_s", "s"),
    ("moment.fft_self_s", "s"),
    ("cli.process_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.command_s", "s"),
    ("cli.cache_load_s", "s"),
    ("cli.cache_store_s", "s"),
    ("cli.cache_bytes", "bytes"),
    ("cli.cache_entries", "count"),
    ("cli.cache_hit_ratio", "ratio"),
)


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = [-1]
        self._undo = []
        self.missing = []  # targets this version of the library lacks

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, outcome=None):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name_id, start, clock(), parent, -1)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name_id, start, end, parent, outcome(result) if outcome else 0)
            return result

        return traced

    def install(self):
        """Wrap every target.  A target the library no longer has is listed
        in ``missing``, which the dump carries and the runner reports: its
        metrics read zero and no longer measure anything."""
        mods = {m: importlib.import_module(f"ospkostka.{m}") for m in MODULES}
        for module, attr, name, outcome in TARGETS:
            owner = mods[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                fn = None if cls is None else cls.__dict__.get(method)
                if fn is not None:
                    self._undo.append((cls, method, fn))
                    setattr(cls, method, self.wrap(fn, name, outcome))
            elif hasattr(owner, attr):
                fn = getattr(owner, attr)
                self._rebind(fn, self.wrap(fn, name, outcome))
            else:
                fn = None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
        cli = mods["cli"]
        for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
            fn = getattr(cli, attr)
            self._rebind(fn, self.wrap(fn, "cli.command"))
        if hasattr(cli, "build_parser"):
            self._rebind(cli.build_parser, self.wrap(self._parser_hook(cli.build_parser), "cli.parse"))
        else:
            self.missing.append("cli.build_parser")

    def _parser_hook(self, build_parser):
        def build(*args, **kwargs):
            parser = build_parser(*args, **kwargs)
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse")
            return parser

        return build

    def _rebind(self, fn, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ospkostka" and not mod_name.startswith("ospkostka."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "missing": self.missing}, fh, separators=(",", ":"))


class Totals:
    """Per-name sums over one or more span files."""

    def __init__(self):
        self.calls = Counter()
        self.values = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.memo_hits = 0  # kostka calls that visited no Weyl pair
        self.rhs_labels = 0  # cone labels enumerated by bryl_rhs
        self.rhs_label_hits = 0  # of those, labels with nonzero K
        self.missing = set()  # wrap targets not found in the library

    def add(self, names, spans):
        child_s = [0.0] * len(spans)
        visited_pairs = set()
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
                if names[name_id] == "kostka.lpoly":
                    visited_pairs.add(parent)
        for idx, (name_id, start, end, parent, value) in enumerate(spans):
            name = names[name_id]
            value = max(value, 0)  # -1 marks a call that raised
            self.calls[name] += 1
            self.values[name] += value
            self.incl_s[name] += end - start
            self.self_s[name] += end - start - child_s[idx]
            if name == "kostka.kostka" and idx not in visited_pairs:
                self.memo_hits += 1
            if parent >= 0 and names[spans[parent][0]] == "euler.rhs":
                if name == "euler.cone_labels":
                    self.rhs_labels += value
                elif name == "kostka.kostka":
                    self.rhs_label_hits += value
        return self

    def add_file(self, path):
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        self.missing.update(raw["missing"])
        return self.add(raw["names"], raw["spans"])


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Totals, cli=None) -> dict:
    """Per-layer metrics of one traced pass.  ``cli`` carries what only the
    CLI workload measures outside its children: summed process wall time and
    the final cache file's size and entry count."""
    out = {}
    for span in (
        "oddroots.cone",
        "oddroots.dominance",
        "kostka.kostka",
        "characters.irreducible",
        "characters.outer",
        "characters.add_scaled",
        "characters.decompose",
        "orbits.closure",
        "orbits.stalk",
        "moment.mat_mul",
        "moment.mat_inverse",
    ):
        out[f"{span}_calls"] = t.calls[span]
        out[f"{span}_self_s"] = t.self_s[span]
    for span in (
        "kostka.lpoly",
        "kostka.support_table",
        "euler.lhs",
        "euler.rhs",
        "moment.char_poly",
        "moment.pfaffian",
        "moment.fft",
    ):
        out[f"{span}_self_s"] = t.self_s[span]
    out["oddroots.cone_hit_ratio"] = _ratio(t.values["oddroots.cone"], t.calls["oddroots.cone"])
    out["kostka.weyl_pairs"] = t.calls["kostka.lpoly"]
    out["kostka.weyl_pair_hit_ratio"] = _ratio(t.values["kostka.lpoly"], t.calls["kostka.lpoly"])
    out["kostka.memo_hit_ratio"] = _ratio(t.memo_hits, t.calls["kostka.kostka"])
    out["roots.weyl_elements_calls"] = t.calls["roots.weyl_elements"]
    out["roots.act_calls"] = t.calls["roots.act"]
    out["euler.cone_labels"] = t.rhs_labels
    out["euler.label_hit_ratio"] = _ratio(t.rhs_label_hits, t.rhs_labels)
    out["moment.check_calls"] = t.calls["moment.check"]
    out["cli.process_s"] = cli["wall_s"] - t.incl_s["cli.main"] if cli else 0.0
    out["cli.parse_s"] = t.incl_s["cli.parse"]
    out["cli.command_s"] = t.incl_s["cli.command"]
    out["cli.cache_load_s"] = t.incl_s["cli.cache_load"]
    out["cli.cache_store_s"] = t.incl_s["cli.cache_store"]
    out["cli.cache_bytes"] = cli["cache_bytes"] if cli else 0
    out["cli.cache_entries"] = cli["cache_entries"] if cli else 0
    out["cli.cache_hit_ratio"] = out["kostka.memo_hit_ratio"] if cli else 0.0
    return {name: out[name] for name, _ in LAYER_METRICS}
