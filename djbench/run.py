#!/usr/bin/env python3
"""Run one benchmark workload against the program in this checkout.

    python3 djbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call builds the program and the benchmark's own code from source with
sbt (djbench/build.sbt) into .bench_build/, then makes one short training run
that records a class-data-sharing archive of the classes it loaded, which cuts
JVM and Spark start-up in every later run. Later calls reuse both while the
sources are unchanged. The workload then runs in one JVM with Spark local[N],
N = the number of available cores. The last line of standard output is the
JSON result; all logging goes to standard error.
"""
import argparse
import hashlib
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "djbench")
BUILD = os.path.join(ROOT, ".bench_build")
CDS = os.path.join(BUILD, "djbench.jsa")
WORKLOADS = ("web-pretrain", "near-dup", "feedback-loop")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# Fixed heap, so GC behaviour and the peak-heap figure repeat between runs.
HEAP = "1g"
# The module openings Spark's own launcher passes on Java 17.
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
              "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
              "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


def log(msg):
    print(f"[djbench] {msg}", file=sys.stderr, flush=True)


def source_files():
    """Every file the build reads: the program's main sources and the benchmark's."""
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src")]
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        if not os.path.isdir(r):
            raise SystemExit(f"missing source directory {os.path.relpath(r, ROOT)}: not a full checkout")
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names if n.endswith((".scala", ".java"))]
    return sorted(files)


def spark_home():
    """The Spark distribution the build compiles against: SPARK_HOME, else the
    first spark-submit on PATH that sits in a distribution with a jars/ directory."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = os.path.join(d, "spark-submit")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
        if os.path.isfile(submit) and os.path.isdir(os.path.join(home, "jars")):
            return home
    raise SystemExit("set SPARK_HOME to a Spark distribution; its jars/ are the compile classpath")


def java_cmd(cp, args, extra=()):
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    # JVM log output goes to stderr, so standard output carries only the result.
    # Compiler threads live as long as the JVM, so the benchmark can subtract
    # their CPU time from the process's (see Bench.jitCpuNs).
    return ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:-UseDynamicNumberOfCompilerThreads",
            "-Xlog:disable", "-Xlog:all=warning:stderr",
            *JAVA_OPENS, *extra,
            "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
            "-Dlog4j2.configurationFile=" + os.path.join(BENCH, "log4j2.properties"),
            "-cp", cp, "djbench.Main", *args]


def build(deadline):
    """Compile with sbt and record the class-data-sharing archive unless the
    sources match the last build; return the classpath."""
    digest = hashlib.sha256()
    for f in source_files():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    stamp = digest.hexdigest()
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp_file = os.path.join(BUILD, "stamp")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                with open(cp_file) as fh:
                    return fh.read().strip()
    log("building program and benchmark with sbt")
    os.makedirs(BUILD, exist_ok=True)
    for f in (stamp_file, CDS):
        if os.path.exists(f):
            os.remove(f)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["SPARK_HOME"] = spark_home()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "writeClasspath"]
    t0 = time.time()
    r = subprocess.run(cmd, cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=max(1, min(BUILD_TIMEOUT_S, deadline - time.time())))
    if r.returncode != 0 or not os.path.exists(cp_file):
        raise SystemExit(f"build failed (sbt exit code {r.returncode})")
    with open(cp_file) as fh:
        cp = fh.read().strip()
    log("recording the class-data-sharing archive")
    r = subprocess.run(java_cmd(cp, ["--workload", "web-pretrain", "--seed", "0", "--seconds", "1", "--trace", "0"],
                                ["-XX:ArchiveClassesAtExit=" + CDS]),
                       cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=max(1, deadline - time.time()))
    if r.returncode != 0:
        raise SystemExit(f"training run failed (exit code {r.returncode})")
    log(f"build took {time.time() - t0:.1f} s")
    with open(stamp_file, "w") as fh:
        fh.write(stamp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    t0 = time.time()
    cp = build(t0 + BUILD_TIMEOUT_S)
    extra = ["-XX:SharedArchiveFile=" + CDS] if os.path.exists(CDS) else []
    cmd = java_cmd(cp, ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                        "--trace", str(a.trace)], extra)
    # subprocess.run kills the JVM and waits for it if the timeout expires.
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
