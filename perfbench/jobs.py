"""One job of each workload, run through the program's public functions.

Each runner takes a tracer: ``tracer.span(name)`` wraps every call into a
public entry point and ``tracer.forced()`` marks the end of a job's forcing.
The untraced run passes :class:`NoTracer`, whose hooks do nothing.
"""

from __future__ import annotations

import contextlib
import io

from streamreal import cauchy, cli, gray_ops, sd_ops
from streamreal.kernel import take_gray_prefix, take_prefix, with_force_count, with_force_count_gray

from gen import CliJob, DagJob, DivJob

OPS = {"sd": sd_ops, "gray": gray_ops}
TAKE = {"sd": take_prefix, "gray": take_gray_prefix}
COUNTED = {"sd": with_force_count, "gray": with_force_count_gray}
CONVERT = {"sd": gray_ops.from_sd, "gray": gray_ops.to_sd}
DAG_FUNCS = {
    code: {name: CONVERT[code] if name == "convert" else getattr(OPS[code], name)
           for name in ("negate", "half", "double", "add_one", "sub_one", "average",
                        "twice_minus", "twice_plus", "convert")}
    for code in OPS
}


class NoTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def forced(self) -> None:
        pass


def run_div(job: DivJob, tracer):
    ops = OPS[job.code]
    with tracer.span("encode"):
        u, u_count = COUNTED[job.code](ops.encode(job.x))
        v, v_count = COUNTED[job.code](ops.encode(job.y))
    with tracer.span("build"):
        result = ops.divide(u, v)
    with tracer.span("take_prefix"):
        digits = TAKE[job.code](result, job.n)
    tracer.forced()
    with tracer.span("decode"):
        decoded = ops.decode(result, job.n)
    return digits, decoded, u_count.count, v_count.count


def run_dag(job: DagJob, tracer):
    nodes = job.nodes
    with tracer.span("encode"):
        streams = [OPS[node.code].encode(node.value) for node in nodes if node.op == "leaf"]
    with tracer.span("build"):
        for node in nodes[len(streams):]:
            streams.append(DAG_FUNCS[nodes[node.args[0]].code][node.op](
                *[streams[i] for i in node.args]))
    codes = [nodes[s].code for s in job.sinks]
    sinks = [streams[s] for s in job.sinks]
    del streams
    with tracer.span("take_prefix"):
        prefixes = [TAKE[code](s, job.n) for code, s in zip(codes, sinks)]
    tracer.forced()
    with tracer.span("decode"):
        decoded = [OPS[code].decode(s, job.n) for code, s in zip(codes, sinks)]
    approx = None
    if job.cauchy_p is not None:
        with tracer.span("cauchy"):
            a, b, c = (cauchy.from_stream(s if code == "sd" else gray_ops.to_sd(s))
                       for code, s in zip(codes, sinks))
            real = cauchy.mul(cauchy.add(a, b), c)
            approx = real.approx(real.modulus(job.cauchy_p))
    return prefixes, decoded, approx


def run_cli(job: CliJob, tracer):
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    tracer.forced()
    return code, out.getvalue(), err.getvalue()
