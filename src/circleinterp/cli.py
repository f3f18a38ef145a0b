"""Command-line front end.

Subcommands: nodes, check, interp, interval, trig, sweep.  Options may come
from a JSON config file (--config); explicit flags override file values.
All file outputs are deterministic for a fixed config: floats are printed
as their shortest round-trip decimals and every JSON report embeds the
library version and a hash of the resolved config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError
from .experiments import (
    NodalFamily,
    convergence_sweep,
    parse_corpus,
    sweep_to_csv,
    sweep_to_json,
)
from .interp import eval_interpolant, interpolate
from .laurent import make_degree_plan
from .nodal import estimate_conditions, make_nodal_system
from .opuc import (
    ParaOrthogonalSpec,
    lebesgue_measure,
    load_measure_spec,
    paraorthogonal_nodes,
    szego_recurrence,
    verblunsky_coefficients,
)
from .transforms import (
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
    if "," in raw:
        re, im = raw.split(",", 1)
        return complex(float(re), float(im))
    return complex(float(raw), 0.0)


def _parse_ns(raw: str):
    if ":" in raw:
        lo, hi = (int(x) for x in raw.split(":", 1))
        ns, n = [], lo
        while n <= hi:
            ns.append(n)
            n *= 2
        return ns
    return [int(x) for x in raw.split(",")]


def _load_nodes_file(path) -> np.ndarray:
    """Node file: JSON array of [re, im] pairs, or plain text with one angle
    (radians) per line."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("["):
        pairs = json.loads(stripped)
        return np.array([complex(re, im) for re, im in pairs])
    thetas = [float(line) for line in stripped.splitlines() if line.strip()]
    return np.exp(1j * np.asarray(thetas))


def _measure_from(raw: str):
    if raw == "lebesgue":
        return lebesgue_measure()
    return load_measure_spec(raw)


def _build_system(cfg):
    if cfg.get("nodes"):
        return make_nodal_system(_load_nodes_file(cfg["nodes"]))
    measure = _measure_from(cfg.get("measure", "lebesgue"))
    n = cfg["n"]
    tau = cfg.get("tau", 1.0 + 0.0j)
    state = szego_recurrence(verblunsky_coefficients(measure, n), n)
    return paraorthogonal_nodes(state, ParaOrthogonalSpec(n=n, tau=tau))


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
        "seed": cfg.get("seed"),
    }


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        "grid_size": report.grid_size,
        "reliable": report.reliable,
        "metadata": _metadata(cfg),
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg.get("out"))
    return 0


def _dense_csv(xs, f_vals, approx, header: str) -> str:
    lines = [header]
    for x, fv, av in zip(xs, f_vals, approx):
        lines.append(f"{float(x)!r},{float(fv)!r},{float(av)!r},{abs(float(fv) - float(av))!r}")
    return "\n".join(lines) + "\n"


def cmd_interp(cfg) -> int:
    system = _build_system(cfg)
    F = parse_corpus(cfg["corpus"])
    plan = make_degree_plan(system.n, cfg.get("r", 0.5))
    I = interpolate(system, plan, F.on_circle(system.nodes))
    grid = cfg.get("grid") or 8192
    theta = 2.0 * np.pi * np.arange(grid) / grid
    z = np.exp(1j * theta)
    approx = eval_interpolant(I, z)
    f_vals = F(theta)
    errs = np.abs(f_vals - approx)
    payload = {
        "n": system.n,
        "p": plan.p,
        "q": plan.q,
        "s": plan.s,
        "corpus": F.label,
        "sup_error": float(np.max(errs)),
        "grid_size": grid,
        "metadata": _metadata(cfg),
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg.get("out"))
    if cfg.get("dense"):
        _emit(_dense_csv(theta, f_vals, approx.real, "theta,f,interpolant,error"), cfg["dense"])
    return 0


def cmd_interval(cfg) -> int:
    w = INTERVAL_WEIGHTS[cfg.get("weight", "chebyshev1")]
    F = parse_corpus(cfg["corpus"])
    sys_iv = interval_nodes_from_measure(w, cfg["n"], cfg.get("variant", "mu1"))
    poly = interval_interpolate(sys_iv, F.on_interval)
    grid = cfg.get("grid") or 2001
    xg = np.linspace(-1.0, 1.0, grid)
    f_vals = F.on_interval(xg)
    approx = poly(xg)
    payload = {
        "n_interior": len(sys_iv.xs),
        "variant": sys_iv.variant,
        "endpoints": {"minus_one": sys_iv.has_minus_one, "plus_one": sys_iv.has_plus_one},
        "corpus": F.label,
        "sup_error": float(np.max(np.abs(f_vals - approx))),
        "grid_size": grid,
        "metadata": _metadata(cfg),
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg.get("out"))
    if cfg.get("dense"):
        _emit(_dense_csv(xg, f_vals, approx, "x,f,interpolant,error"), cfg["dense"])
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
    elif variant == "para":
        measure = _measure_from(cfg.get("measure", "lebesgue"))
        state = szego_recurrence(verblunsky_coefficients(measure, n), n)
        tp = trig_interpolate_paraorthogonal(state, cfg.get("tau", 1.0 + 0.0j), n, F)
    else:
        raise ValidationError(f"trig variant must be 'symmetric' or 'para', got {variant!r}")
    grid = cfg.get("grid") or 4096
    theta = 2.0 * np.pi * np.arange(grid) / grid
    f_vals = F(theta)
    approx = tp(theta)
    payload = {
        "n": n,
        "variant": variant,
        "degree": tp.degree,
        "corpus": F.label,
        "sup_error": float(np.max(np.abs(f_vals - approx))),
        "grid_size": grid,
        "metadata": _metadata(cfg),
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg.get("out"))
    if cfg.get("dense"):
        _emit(_dense_csv(theta, f_vals, approx, "theta,f,interpolant,error"), cfg["dense"])
    return 0


def cmd_sweep(cfg) -> int:
    F = parse_corpus(cfg["corpus"])
    family_name = cfg.get("family", "roots-of-unity")
    tau = cfg.get("tau", 1.0 + 0.0j)
    if family_name in ("roots-of-unity", "roots-of-unimodular"):
        family = NodalFamily(kind="roots-of-unimodular", tau=tau)
    elif family_name == "para-orthogonal":
        family = NodalFamily(
            kind="para-orthogonal", tau=tau, measure=_measure_from(cfg.get("measure", "lebesgue"))
        )
    else:
        raise ValidationError(
            f"family must be 'roots-of-unity' or 'para-orthogonal', got {family_name!r}"
        )
    result = convergence_sweep(family, cfg.get("r", 0.5), cfg["ns"], F,
                               error_grid=cfg.get("grid") or 8192)
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


COMMANDS = {
    "nodes": cmd_nodes,
    "check": cmd_check,
    "interp": cmd_interp,
    "interval": cmd_interval,
    "trig": cmd_trig,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circle-interp",
        description="Laurent-polynomial Lagrange interpolation on the unit circle.",
        epilog="Option precedence: command-line flags override --config file "
               "values, which override built-in defaults.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, *specs):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for flags, kwargs in specs:
            p.add_argument(flags, **kwargs)
        return p

    measure = ("--measure", dict(help="'lebesgue' or a measure-spec JSON file"))
    tau = ("--tau", dict(help="rotation tau as 're,im' or a real number"))
    n = ("--n", dict(type=int, help="node count / degree"))
    grid = ("--grid", dict(type=int, help="evaluation grid size"))
    out = ("--out", dict(help="output path (stdout when omitted)"))
    corpus_f = ("--corpus", dict(help="test function, e.g. holder:0.6 or smooth-exp"))
    dense = ("--dense", dict(help="write a dense evaluation CSV to this path"))
    weight = ("--weight", dict(choices=sorted(INTERVAL_WEIGHTS), help="interval weight w(x)"))

    add("nodes", "generate a nodal system and print/save it",
        measure, tau, n,
        (("--nodes"), dict(help="load nodes from file instead of a measure")),
        out, (("--format"), dict(choices=["csv", "json"], help="node output format")))
    add("check", "estimate the sufficiency-condition constants",
        measure, tau, n, (("--nodes"), dict(help="load nodes from file")), grid, out)
    add("interp", "interpolate a corpus function on the circle",
        measure, tau, n, (("--nodes"), dict(help="load nodes from file")),
        (("--r"), dict(type=float, help="window ratio in (0,1)")), corpus_f, grid, out, dense)
    add("interval", "interpolate on [-1,1] via the circle lift",
        weight, n, (("--variant"), dict(choices=["mu1", "mu2", "mu3", "mu4"])),
        corpus_f, grid, out, dense,
        (("--nodes-out"), dict(dest="nodes_out", help="write interval nodes CSV here")))
    add("trig", "trigonometric interpolation on [0, 2*pi)",
        weight, measure, tau, n,
        (("--variant"), dict(choices=["symmetric", "para"])), corpus_f, grid, out, dense)
    add("sweep", "convergence sweep over increasing n",
        (("--family"), dict(choices=["roots-of-unity", "para-orthogonal"])),
        measure, tau,
        (("--ns"), dict(help="'a:b' (powers of two) or comma list")),
        (("--r"), dict(type=float, help="window ratio in (0,1)")), corpus_f, grid, out)
    return parser


_REQUIRED = {
    "nodes": [],
    "check": [],
    "interp": ["corpus"],
    "interval": ["n", "corpus"],
    "trig": ["n", "corpus"],
    "sweep": ["ns", "corpus"],
}


def resolve_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        cfg[key] = val
    if "tau" in cfg and isinstance(cfg["tau"], str):
        cfg["tau"] = _parse_tau(cfg["tau"])
    if "ns" in cfg and isinstance(cfg["ns"], str):
        cfg["ns"] = _parse_ns(cfg["ns"])
    for key in _REQUIRED[args.command]:
        if key not in cfg:
            raise ValidationError(f"'{args.command}' requires --{key}")
    if args.command in ("nodes", "check", "interp") and "nodes" not in cfg and "n" not in cfg:
        raise ValidationError(f"'{args.command}' requires --n or --nodes")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
