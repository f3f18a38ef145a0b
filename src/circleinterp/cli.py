"""Command-line front end.

Subcommands: nodes, check, interp, interval, trig, sweep.  Options may come
from a JSON config file (--config); explicit flags override file values.
All file outputs are deterministic for a fixed config: floats are printed
as their shortest round-trip decimals and every JSON report embeds the
library version and a hash of the resolved config.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError
from .experiments import (
    NodalFamily,
    _json_number,
    convergence_sweep,
    parse_corpus,
    sweep_to_csv,
    sweep_to_json,
)
from .interp import eval_interpolant, interpolate
from .laurent import _check_count, _uniform_angles, make_degree_plan
from .nodal import estimate_conditions, make_nodal_system
from .opuc import lebesgue_measure, load_measure_spec, verblunsky_coefficients
from .transforms import (
    VARIANTS,
    interval_interpolate,
    interval_nodes_csv,
    interval_nodes_from_measure,
    trig_interpolate_paraorthogonal,
    trig_interpolate_symmetric,
)

INTERVAL_WEIGHTS = {
    "chebyshev1": lambda x: 1.0 / np.sqrt(np.clip(1.0 - x * x, 1e-300, None)),
    "chebyshev2": lambda x: np.sqrt(np.clip(1.0 - x * x, 0.0, None)),
    "chebyshev3": lambda x: np.sqrt(np.clip((1.0 + x) / np.clip(1.0 - x, 1e-300, None), 0.0, None)),
    "chebyshev4": lambda x: np.sqrt(np.clip((1.0 - x) / np.clip(1.0 + x, 1e-300, None), 0.0, None)),
}


def _parse_tau(raw: str) -> complex:
    try:
        if "," in raw:
            re, im = raw.split(",", 1)
            return complex(float(re), float(im))
        return complex(float(raw), 0.0)
    except ValueError as exc:
        raise ValidationError(f"--tau must be 're,im' or a real number, got {raw!r}") from exc


def _parse_ns(raw: str):
    try:
        if ":" not in raw:
            return [int(x) for x in raw.split(",")]
        lo, hi = (int(x) for x in raw.split(":", 1))
    except ValueError as exc:
        raise ValidationError(f"--ns must be 'a:b' or a comma list of integers, got {raw!r}") from exc
    if lo < 1:
        raise ValidationError(f"the range {raw!r} must start at n >= 1")
    ns, n = [], lo
    while n <= hi:
        ns.append(n)
        n *= 2
    return ns


def _load_nodes_file(path) -> np.ndarray:
    """Node file: JSON array of [re, im] pairs, or plain text with one angle
    (radians) per line."""
    try:
        with open(path) as fh:
            stripped = fh.read().strip()
        if stripped.startswith("["):
            return np.array([complex(re, im) for re, im in json.loads(stripped)])
        thetas = np.array([float(line) for line in stripped.splitlines() if line.strip()])
    except (OSError, ValueError, TypeError) as exc:
        raise ValidationError(f"nodes file {path}: {exc}") from exc
    if not np.all(np.isfinite(thetas)):
        raise ValidationError(f"nodes file {path}: every angle must be finite")
    return np.exp(1j * thetas)


def _measure_from(raw: str):
    if raw == "lebesgue":
        return lebesgue_measure()
    return load_measure_spec(raw)


def _build_system(cfg):
    if cfg.get("nodes"):
        return make_nodal_system(_load_nodes_file(cfg["nodes"]))
    family = NodalFamily(kind="para-orthogonal", tau=cfg.get("tau", 1.0 + 0.0j),
                         measure=_measure_from(cfg.get("measure", "lebesgue")))
    return family.build(cfg["n"])


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


_OUTPUT_KEYS = ("out", "dense", "nodes_out")


def _metadata(cfg: dict) -> dict:
    clean = {k: (str(v) if isinstance(v, complex) else v) for k, v in cfg.items()}
    # output destinations do not affect the computed content, so the hash
    # stays stable across runs that only differ in where they write
    hashed = {k: v for k, v in clean.items() if k not in _OUTPUT_KEYS}
    return {
        "version": __version__,
        "config_hash": _config_hash(hashed),
        "config": clean,
    }


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _strict(x):
    """x with every non-finite float, nested dicts included, as None."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    return _json_number(x) if isinstance(x, float) else x


def _emit_report(payload: dict, out: str | None):
    """Write a JSON report as strict JSON: an infinite or NaN value is null."""
    _emit(json.dumps(_strict(payload), indent=2, allow_nan=False) + "\n", out)


def _nodes_text(system, fmt: str) -> str:
    if fmt == "json":
        pairs = [[float(z.real), float(z.imag)] for z in system.nodes]
        return json.dumps(pairs) + "\n"
    return "\n".join(repr(float(t)) for t in system.thetas) + "\n"


def cmd_nodes(cfg) -> int:
    system = _build_system(cfg)
    _emit(_nodes_text(system, cfg.get("format", "csv")), cfg.get("out"))
    return 0


def cmd_check(cfg) -> int:
    system = _build_system(cfg)
    report = estimate_conditions(system, cfg.get("grid"))
    payload = {
        "n": report.n,
        "B_hat": report.b_hat,
        "B_hat_nodes": report.b_hat_nodes,
        "L_hat": report.l_hat,
        "lebesgue_max": report.lebesgue_max,
        "log10_L_hat": report.log10_l_hat,
        "log10_lebesgue_max": report.log10_lebesgue_max,
        "grid_size": report.grid_size,
        "reliable": report.reliable,
        "metadata": _metadata(cfg),
    }
    _emit_report(payload, cfg.get("out"))
    return 0


def _dense_csv(xs, f_vals, approx, header: str) -> str:
    """The CSV of f, Re approx and |f - approx| on the grid xs; for a complex
    approx the error is the complex distance, as in the report's sup_error."""
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as for Python floats
        error = np.abs(f_vals - approx)
    # Python floats from one tolist() per column: float() per numpy scalar
    # costs more than the formatting
    cols = (np.asarray(c, dtype=float).tolist() for c in (xs, f_vals, np.real(approx), error))
    rows = [f"{x!r},{fv!r},{av!r},{err!r}" for x, fv, av, err in zip(*cols)]
    return "\n".join([header, *rows]) + "\n"


def _emit_fit(cfg, head: dict, F, xs, f_vals, approx, header: str):
    """Write the report of a fit on the grid xs, the command's own head
    fields first, and with --dense its CSV (see _dense_csv)."""
    payload = {**head, "corpus": F.label, "sup_error": float(np.max(np.abs(f_vals - approx))),
               "grid_size": len(xs), "metadata": _metadata(cfg)}
    _emit_report(payload, cfg.get("out"))
    if cfg.get("dense"):
        _emit(_dense_csv(xs, f_vals, approx, header), cfg["dense"])


def cmd_interp(cfg) -> int:
    system = _build_system(cfg)
    F = parse_corpus(cfg["corpus"])
    plan = make_degree_plan(system.n, cfg.get("r", 0.5))
    I = interpolate(system, plan, F.on_circle(system.nodes))
    theta = _uniform_angles(cfg.get("grid", 8192))
    _emit_fit(cfg, {"n": system.n, "p": plan.p, "q": plan.q, "s": plan.s}, F, theta,
              F(theta), eval_interpolant(I, np.exp(1j * theta)), "theta,f,interpolant,error")
    return 0


def cmd_interval(cfg) -> int:
    w = INTERVAL_WEIGHTS[cfg.get("weight", "chebyshev1")]
    F = parse_corpus(cfg["corpus"])
    sys_iv = interval_nodes_from_measure(w, cfg["n"], cfg.get("variant", "mu1"))
    poly = interval_interpolate(sys_iv, F.on_interval)
    xg = np.linspace(-1.0, 1.0, cfg.get("grid", 2001))
    head = {
        "n_interior": len(sys_iv.xs),
        "variant": sys_iv.variant,
        "endpoints": {"minus_one": sys_iv.has_minus_one, "plus_one": sys_iv.has_plus_one},
    }
    _emit_fit(cfg, head, F, xg, F.on_interval(xg), poly(xg), "x,f,interpolant,error")
    if cfg.get("nodes_out"):
        _emit(interval_nodes_csv(sys_iv), cfg["nodes_out"])
    return 0


def cmd_trig(cfg) -> int:
    F = parse_corpus(cfg["corpus"])
    variant = cfg.get("variant", "symmetric")
    n = cfg["n"]
    if variant == "symmetric":
        w = INTERVAL_WEIGHTS[cfg.get("weight", "chebyshev1")]
        tp = trig_interpolate_symmetric(w, n, F)
    else:
        alphas = verblunsky_coefficients(_measure_from(cfg.get("measure", "lebesgue")), n)
        tp = trig_interpolate_paraorthogonal(alphas, cfg.get("tau", 1.0 + 0.0j), n, F)
    theta = _uniform_angles(cfg.get("grid", 4096))
    _emit_fit(cfg, {"n": n, "variant": variant, "degree": tp.degree}, F, theta, F(theta),
              tp(theta), "theta,f,interpolant,error")
    return 0


def cmd_sweep(cfg) -> int:
    F = parse_corpus(cfg["corpus"])
    tau = cfg.get("tau", 1.0 + 0.0j)
    if cfg.get("family", "roots-of-unity") == "roots-of-unity":
        family = NodalFamily(kind="roots-of-unimodular", tau=tau)
    else:
        family = NodalFamily(
            kind="para-orthogonal", tau=tau, measure=_measure_from(cfg.get("measure", "lebesgue"))
        )
    result = convergence_sweep(family, cfg.get("r", 0.5), cfg["ns"], F,
                               error_grid=cfg.get("grid", 8192))
    out = cfg.get("out")
    if out:
        base = out[:-4] if out.endswith(".csv") else out
        _emit(sweep_to_csv(result), base + ".csv")
        _emit(sweep_to_json(result, metadata=_metadata(cfg)), base + ".json")
    else:
        _emit(sweep_to_csv(result), None)
    failed = [(n, status) for n, status in zip(result.ns, result.statuses) if status != "ok"]
    for n, status in failed:
        print(f"sweep failed at n={n}: {status}", file=sys.stderr)
    return 2 if failed else 0


# option -> (flag type, help).  A config file may also give tau as a number
# and ns as a list; _check_values holds every value to the same rules.
OPTIONS = {
    "measure": (str, "'lebesgue' or a measure-spec JSON file"),
    "tau": (str, "rotation tau as 're,im' or a real number"),
    "n": (int, "node count / degree"),
    "nodes": (str, "load nodes from file instead of a measure"),
    "weight": (str, "interval weight w(x)"),
    "variant": (str, None),
    "family": (str, None),
    "ns": (str, "'a:b' (powers of two) or comma list"),
    "r": (float, "window ratio in (0,1)"),
    "corpus": (str, "test function, e.g. holder:0.6 or smooth-exp"),
    "grid": (int, "evaluation grid size"),
    "out": (str, "output path (stdout when omitted)"),
    "dense": (str, "write a dense evaluation CSV to this path"),
    "nodes_out": (str, "write interval nodes CSV here"),
    "format": (str, "node output format"),
}

# the values an option may take, by option or by (subcommand, option)
_CHOICES = {
    "weight": sorted(INTERVAL_WEIGHTS),
    "format": ["csv", "json"],
    "family": ["roots-of-unity", "para-orthogonal"],
    ("interval", "variant"): list(VARIANTS),
    ("trig", "variant"): ["symmetric", "para"],
}


# options and required list option names, space-separated; a required
# "n|nodes" means either one
Command = namedtuple("Command", "run help options required")


COMMANDS = {
    "nodes": Command(cmd_nodes, "generate a nodal system and print/save it",
                     "measure tau n nodes out format", "n|nodes"),
    "check": Command(cmd_check, "estimate the sufficiency-condition constants",
                     "measure tau n nodes grid out", "n|nodes"),
    "interp": Command(cmd_interp, "interpolate a corpus function on the circle",
                      "measure tau n nodes r corpus grid out dense", "n|nodes corpus"),
    "interval": Command(cmd_interval, "interpolate on [-1,1] via the circle lift",
                        "weight n variant corpus grid out dense nodes_out", "n corpus"),
    "trig": Command(cmd_trig, "trigonometric interpolation on [0, 2*pi)",
                    "weight measure tau n variant corpus grid out dense", "n corpus"),
    "sweep": Command(cmd_sweep, "convergence sweep over increasing n",
                     "family measure tau ns r corpus grid out", "ns corpus"),
}


def _choices(command: str, key: str):
    return _CHOICES.get((command, key), _CHOICES.get(key))


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed flag is invalid input: exit 1, not 2
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circle-interp",
        description="Laurent-polynomial Lagrange interpolation on the unit circle.",
        epilog="Option precedence: command-line flags override --config file "
               "values, which override built-in defaults.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in command.options.split():
            kind, help_ = OPTIONS[key]
            p.add_argument(_flag(key), dest=key, type=kind, choices=_choices(name, key),
                           help=help_)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on first use and kept for the process: each
    parse_args call fills a fresh namespace, so no value carries over."""
    return build_parser()


def _check_values(command: str, cfg: dict):
    """Check the type and range of every option, whether it came from a
    flag or from the config file, and parse tau and ns in place.  A key
    that names no option is refused; one of another subcommand is not, so
    that one config file can serve several subcommands."""
    for key in cfg:
        if key not in OPTIONS:
            raise ValidationError(f"unknown config key {key!r}; known: {sorted(OPTIONS)}")
    for key, (kind, _) in OPTIONS.items():
        if key not in cfg:
            continue
        val = cfg[key]
        if key == "tau":
            if isinstance(val, str):
                cfg[key] = _parse_tau(val)
            elif isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ValidationError(f"tau must be 're,im' or a real number, got {val!r}")
        elif key == "ns":
            ns = _parse_ns(val) if isinstance(val, str) else val
            if not isinstance(ns, list):
                raise ValidationError(f"ns must be 'a:b', a comma list or a JSON list, got {val!r}")
            cfg[key] = [_check_count("each n in ns", n, 2) for n in ns]
        elif kind is int:
            _check_count(key, val, 1)
        elif kind is float and (isinstance(val, bool) or not isinstance(val, (int, float))):
            raise ValidationError(f"{key} must be a number, got {val!r}")
        elif kind is str and not isinstance(val, str):
            raise ValidationError(f"{key} must be a string, got {val!r}")
        choices = _choices(command, key)
        if choices and val not in choices:
            raise ValidationError(f"{key} must be one of {choices}, got {val!r}")


def resolve_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg.update(json.load(fh))
        except (OSError, ValueError, TypeError) as exc:
            raise ValidationError(f"--config {args.config}: {exc}") from exc
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        cfg[key] = val
    _check_values(args.command, cfg)
    for need in COMMANDS[args.command].required.split():
        keys = need.split("|")
        if not any(key in cfg for key in keys):
            raise ValidationError(f"'{args.command}' requires {' or '.join(map(_flag, keys))}")
    return cfg


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = resolve_config(args)
        return COMMANDS[args.command].run(cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
