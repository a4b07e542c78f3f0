"""Command line interface.

Subcommands map one-to-one onto library operations: ``simulate`` makes
and samples a phantom, ``transform`` runs the discrete Radon transform,
``verify-dist`` runs the Monte-Carlo distribution experiment,
``denoise`` runs the full pipeline and reports metrics, ``metrics``
compares two stored grids. Failures print a single
``error: <category>: <message>`` line on stderr and exit nonzero.
"""

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, _setting_texts, load_config, parse_config
from .fileio import read_csv, read_pgm, write_csv, write_pgm, write_sinogram
from .harness import LineFit, run_distribution_experiment
from .metrics import mse, psnr, ssim_global
from .phantoms import make_phantom, sample_poisson
from .radon import propagate_intensity
from .ridgelet import denoise_full
from .seeding import derive_rng
from .svgplot import emit_scatter_svg

__all__ = ["main"]


def _load(args):
    cfg = load_config(args.config) if args.config else parse_config("")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.output_dir:
        cfg = replace(cfg, output_dir=args.output_dir)
    return cfg


def _out(cfg, name):
    return str(Path(cfg.output_dir) / name)


def _read_grid(path):
    if str(path).endswith(".pgm"):
        return read_pgm(path).astype(float)
    array, _ = read_csv(path)
    return array


def _cmd_simulate(args):
    cfg = _load(args)
    intensity = make_phantom(cfg.phantom)
    counts = sample_poisson(intensity, rng=derive_rng(cfg.seed, "simulate"))
    ipath, cpath = _out(cfg, "intensity.csv"), _out(cfg, "counts.pgm")
    write_csv(ipath, intensity, {"kind": "intensity"})
    write_pgm(cpath, counts)
    print(f"wrote {ipath}")
    print(f"wrote {cpath}")
    return 0


def _cmd_transform(args):
    cfg = _load(args)
    if args.input:
        counts = _read_grid(args.input)
    else:
        intensity = make_phantom(cfg.phantom)
        counts = sample_poisson(intensity,
                                rng=derive_rng(cfg.seed, "simulate"))
    sino = propagate_intensity(counts, cfg.transform)
    spath = _out(cfg, "sinogram.csv")
    write_sinogram(spath, sino)
    print(f"wrote {spath}")
    return 0


def _report_meta(rep):
    """A report's scalar fields in field order: floats to 17 digits, CIs
    as ``lo;hi``, and the GOF pair only when the test ran."""
    meta = {}
    for f in fields(rep):
        value = getattr(rep, f.name)
        if isinstance(value, tuple):
            value = ";".join(f"{v:.17g}" for v in value)
        elif isinstance(value, float):
            value = f"{value:.17g}"
        elif value is None or isinstance(value, np.ndarray):
            continue
        meta[f.name] = value
    if rep.gof_pass_fraction is None:
        del meta["gof_tested"]
    return meta


def _cmd_verify_dist(args):
    cfg = _load(args)
    reports = run_distribution_experiment(cfg.phantom, cfg.transform,
                                          cfg.samples, cfg.seed,
                                          wavelet=cfg.wavelet, gof=args.gof)
    for rep in reports:
        stem = rep.band if rep.band == "radon" else f"{rep.band}_{rep.level}"
        cpath = _out(cfg, f"dist_{stem}.csv")
        write_csv(cpath, rep.scatter, _report_meta(rep))
        print(f"wrote {cpath}")
        print(f"{stem}: n={rep.n_coefficients} "
              f"mean_var_ratio={rep.mean_var_ratio:.4f} "
              f"var_pred_ratio={rep.var_pred_ratio:.4f} "
              f"slope={rep.slope:.4f} r2={rep.r_squared:.4f}")
    radon = reports[0]
    svg = _out(cfg, "scatter_radon.svg")
    emit_scatter_svg(radon.scatter, svg,
                     fit=LineFit(radon.slope, radon.intercept,
                                 radon.r_squared),
                     title="empirical variance vs noiseless intensity")
    print(f"wrote {svg}")
    return 0


def _cmd_denoise(args):
    cfg = _load(args)
    if args.selector:
        cfg = replace(cfg, policy=replace(cfg.policy, selector=args.selector))
    t0 = time.perf_counter()
    reference = make_phantom(cfg.phantom)
    if not reference.max() > 0:
        # every metric is scaled by the reference peak
        raise ValueError("the reference phantom's peak rate is 0; "
                         "phantom.background_intensity must be > 0")
    counts = sample_poisson(reference,
                            rng=derive_rng(cfg.seed, "denoise-sample"))
    simulate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = denoise_full(counts, cfg, reference=reference)
    denoise_s = time.perf_counter() - t0

    rows = np.array([
        [mse(counts, reference), ssim_global(counts, reference),
         psnr(counts, reference)],
        [mse(result.image, reference), ssim_global(result.image, reference),
         psnr(result.image, reference)],
    ])
    metric_lines = [f"{label}: mse={m:.6g} ssim={s:.6g} psnr={p:.6g}"
                    for label, (m, s, p) in zip(("noisy", "denoised"), rows)]

    artifacts = [
        ("reference.csv", lambda p: write_csv(p, reference)),
        ("noisy.pgm", lambda p: write_pgm(p, counts)),
        ("denoised.csv", lambda p: write_csv(p, result.image)),
        ("metrics.csv", lambda p: write_csv(
            p, rows, {"rows": "noisy;denoised", "columns": "mse;ssim;psnr",
                      "thresholds": ";".join(
                          "%.17g" % t for t in result.thresholds)})),
    ]
    manifest = []
    for name, writer in artifacts:
        path = _out(cfg, name)
        writer(path)
        manifest.append(path)
    rpath = _out(cfg, "run_report.txt")
    manifest.append(rpath)
    # the [config] section is a config file that replays the run
    report = [
        "[config]", *(f"{key} = {text}" for key, text in _setting_texts(cfg)),
        "[timings]", f"simulate = {simulate_s:.3f} s",
        f"denoise = {denoise_s:.3f} s",
        "[thresholds]", *(f"detail_{level} = {tau:.6g}" for level, tau
                          in enumerate(result.thresholds, start=1)),
        "[metrics]", *metric_lines,
        "[artifacts]", *manifest,
    ]
    Path(rpath).parent.mkdir(parents=True, exist_ok=True)
    Path(rpath).write_text("\n".join(report) + "\n")
    for path in manifest:
        print(f"wrote {path}")
    for line in metric_lines:
        print(line)
    return 0


def _cmd_metrics(args):
    a = _read_grid(args.first)
    b = _read_grid(args.second)
    peak = args.peak
    m = mse(a, b)
    s = ssim_global(a, b, data_range=peak)
    p = psnr(a, b, peak=peak)
    print(f"{m:.17g},{s:.17g},{p:.17g}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="poissonridge",
        description="Ridgelet-domain Poisson denoising toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", help="config file path")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--output-dir", help="override output directory")

    p = sub.add_parser("simulate", help="write a phantom and sampled counts")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("transform", help="Radon-transform counts")
    common(p)
    p.add_argument("--input", help="counts file (.pgm or .csv); "
                                   "simulated when omitted")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify-dist",
                       help="Monte-Carlo distribution verification")
    common(p)
    p.add_argument("--gof", action="store_true",
                   help="also run the Poisson chi-square test")
    p.set_defaults(func=_cmd_verify_dist)

    p = sub.add_parser("denoise", help="simulate, denoise and score")
    common(p)
    p.add_argument("--selector", help="override the threshold selector "
                                      "(oracle-erm, sure, fixed)")
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("metrics", help="compare two stored grids")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--peak", type=float, default=None,
                   help="dynamic range override")
    p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
    except Exception as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
