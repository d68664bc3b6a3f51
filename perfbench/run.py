"""netdecomp benchmark: certified outputs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One process runs one workload single-threaded: it imports netdecomp, makes
the workload's inputs from ``--seed`` (several times, to time set-up), then
repeats passes over the workload's operations for ``--seconds``.  Every
operation's output is checked by an independent oracle; a failed check is
counted and reported, never fatal.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, the attribution of traced time to layers and the tracing
overhead.  The last line of standard output is one JSON object.  Spans and
the full record of the run go to ``.perfbench/`` in the checkout.
"""

import os

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_ENV:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("decomp", "pipelines")
SETUP_REPEATS = 3
END_TO_END = {  # name -> unit; lower is better for all
    "setup_s": "s",
    "certified_s": "s",
    "algo_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def summary(values: list) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_sha():
    """The checkout's commit, read from .git; None outside a git clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_netdecomp():
    """Import the workloads (and so netdecomp) from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "netdecomp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no netdecomp package under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import layers as layer_trace
    import workloads
    import_s = perf_counter() - t0
    import netdecomp
    if Path(netdecomp.__file__).resolve().parent != (src / "netdecomp").resolve():
        raise SystemExit(f"perfbench: imported netdecomp from {netdecomp.__file__}")
    return workloads, layer_trace, import_s


def run_workload(args) -> int:
    workloads, layer_trace, import_s = import_netdecomp()
    import numpy
    import scipy
    from netdecomp import carving, cli, clustering, coloring, covers
    from netdecomp import decompose, graphs, mis, simulate

    modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
        carving, cli, clustering, coloring, covers, decompose, graphs, mis, simulate)}
    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = layer_trace.Tracer(modules) if args.trace else None
    verify_timer = workloads.CliVerifyTimer()
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=out_dir))
    try:
        # -- set-up, repeated; the last inputs are the ones measured --
        gen_s, generate_s = [], []
        for _ in range(SETUP_REPEATS):
            ops = None  # drop the previous inputs before making new ones
            if tracer:
                tracer.install()
                mark = tracer.mark()
            t0 = perf_counter()
            ops = wl.setup(args.seed, workdir)
            gen_s.append(perf_counter() - t0)
            if tracer:
                generate_s.append(tracer.window(mark).metrics()["graphs.generate_s"])
                tracer.uninstall()
        setup_samples = [import_s + s for s in gen_s]

        # -- passes --
        gate = workloads.Gate()
        samples = {"certified_s": [], "algo_s": [], "verify_s": []}
        op_s = {op.name: [] for op in ops}
        traced_pass_s, windows = [], []
        digest = None
        # a pass starts only if one more pass as long as the last one still
        # ends by the deadline, so a run measures at most --seconds
        deadline = perf_counter() + args.seconds
        pass_no = 0
        elapsed = 0.0
        while pass_no < (2 if tracer else 1) or perf_counter() + elapsed <= deadline:
            traced = tracer is not None and pass_no % 2 == 1
            clock = workloads.Clock()
            verify_timer.clock = clock
            if traced:
                tracer.install()
                mark = tracer.mark()
            outputs = []
            t0 = perf_counter()
            for op in ops:
                t_op = perf_counter()
                outputs.append([op.name, gate.run(op, clock, pass_no)])
                op_s[op.name].append(perf_counter() - t_op)
            elapsed = perf_counter() - t0
            if traced:
                windows.append(tracer.window(mark))
                tracer.uninstall()
                traced_pass_s.append(elapsed)
            else:
                samples["certified_s"].append(elapsed)
                samples["algo_s"].append(clock.algo_s)
                samples["verify_s"].append(clock.verify_s)
            if digest is None:
                digest = hashlib.sha256(workloads.canonical(outputs).encode()).hexdigest()
            pass_no += 1
    finally:
        verify_timer.close()
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["setup_s"] = setup_samples
    stats = {name: summary(vals) for name, vals in samples.items()}
    stats["peak_rss_mb"] = summary([peak_rss_mb])

    layer = {}
    if tracer:
        per_pass = [w.metrics() for w in windows]
        for name, (unit, _better, exact, moves) in layer_trace.PER_LAYER.items():
            vals = [m[name] for m in per_pass]
            if name == "graphs.generate_s":
                vals = generate_s
            if exact and len(set(vals)) > 1:
                gate.attempted += 1
                gate.fail("exact count", [f"{name} differs between passes: {vals}"])
            layer[name] = {"unit": unit, "moves": moves, **summary(vals), "samples": vals}

    record = {
        "workload": args.workload,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ[v] for v in THREAD_ENV},
        "passes": pass_no,
        "operations": [op.name for op in ops],
        "output_sha256": digest,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "fail_frac": gate.failed / gate.attempted,
        "failures": gate.report,
        "end_to_end": {k: {"unit": END_TO_END[k], **stats[k]} for k in END_TO_END},
        "raw_samples": {**samples, "operation_s": op_s, "setup_import_s": import_s,
                        "setup_generate_s": gen_s},
        "per_layer": layer,
    }

    print(f"workload {args.workload}  seed {args.seed}  passes {pass_no}  "
          f"trace {args.trace}  sha256 {digest}")
    for line in gate.report:
        print(line)
    if tracer:
        record["attribution"] = attribution(layer_trace, windows, traced_pass_s,
                                            samples["certified_s"])
        spans_path = out_dir / f"spans-{tag}.json"
        with open(spans_path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "self_s"],
                       "spans": tracer.spans}, fh)
        for name, s in layer.items():
            print(f"{name:40s} {s['median']:14.6g} {s['unit']:6s} "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
        metrics = {name: {"value": s["median"], "unit": s["unit"]}
                   for name, s in layer.items()}
    else:
        for name, unit in END_TO_END.items():
            s = stats[name]
            print(f"{name:12s} {s['median']:12.6f} {unit:3s} "
                  f"(q1 {s['q1']:.6f}, q3 {s['q3']:.6f}, n {s['n']})")
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"fail_frac    {gate.failed / gate.attempted:12.6f} ratio "
          f"({gate.failed} of {gate.attempted})")
    record_path = out_dir / f"result-{tag}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def attribution(layer_trace, windows, traced_pass_s, untraced_pass_s) -> dict:
    """Mean self seconds per layer in a traced pass; with the remainder
    (benchmark code outside any wrapped call) they add up to the traced
    pass time."""
    n = len(windows)
    layers = {name: 0.0 for name in layer_trace.LAYERS}
    leaves: dict = {}
    for w in windows:
        for name, secs in w.layer_self_s().items():
            layers[name] += secs / n
        for (leaf, caller), secs in w.leaf_s_by_caller.items():
            key = f"{leaf} in {caller or 'the benchmark'}"
            leaves[key] = leaves.get(key, 0.0) + secs / n
    traced = sum(traced_pass_s) / n
    remainder = traced - sum(layers.values())
    untraced = statistics.median(untraced_pass_s)
    print("attribution of a traced pass (mean self seconds per layer):")
    for name, secs in layers.items():
        print(f"  {name:12s} {secs:10.4f} s  {100 * secs / traced:5.1f} %")
    print(f"  {'unwrapped':12s} {remainder:10.4f} s  {100 * remainder / traced:5.1f} %")
    print(f"  {'traced pass':12s} {traced:10.4f} s")
    print(f"  untraced certified_s {untraced:.4f} s, tracing overhead "
          f"{traced - untraced:+.4f} s")
    print("leaf kernels by caller (mean seconds per traced pass, 1 % or more):")
    for key, secs in sorted(leaves.items(), key=lambda kv: -kv[1]):
        if secs >= 0.01 * traced:
            print(f"  {key:40s} {secs:10.4f} s  {100 * secs / traced:5.1f} %")
    return {"layers_s": layers, "unwrapped_s": remainder, "traced_pass_s": traced,
            "untraced_certified_s": untraced, "overhead_s": traced - untraced,
            "leaf_s_by_caller": leaves}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        result = proc.stdout.strip().splitlines()[-1:] if proc.returncode == 0 else []
        if not result or not json.loads(result[0])["correct"]:
            worst = 1
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
