"""Build file of the benchmark.

Compiles the program (src/main/scala) together with the benchmark code
(perfbench/src) using the Scala compiler that ships in the Spark
distribution, packs the classes into one jar, and records a JVM class-data
sharing (CDS) archive from one short training run, so that every measured
run starts its JVM and Spark session without re-loading Spark's classes.
Everything is written under .bench_build/perfbench; a build is reused while
the sources, the JDK and the Spark jars are unchanged.

    python3 perfbench/build.py      # build only; run.py builds on first use
"""

import hashlib
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", BENCH / "src"]
MAIN = "repro.perfbench.Main"
# A fixed-size heap and the parallel collector keep GC pauses short and alike
# from run to run. -XX:-UsePerfData: no hsperfdata file outside the checkout.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData",
            f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}"]
TRAINING_ARGS = ["--workload", "slugger-spark", "--seed", "0", "--seconds", "1", "--trace", "0"]


class BuildError(Exception):
    pass


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else shutil.which("java")
    if not exe or not Path(exe).exists():
        raise BuildError("no java: set JAVA_HOME or put java on PATH")
    return str(exe)


def spark_jars() -> Path:
    """The Spark distribution's jars: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            raise BuildError("no Spark: set SPARK_HOME or put spark-submit on PATH")
        home = Path(submit).resolve().parent.parent
    jars = Path(home) / "jars"
    if not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"{jars} holds no scala-compiler jar")
    return jars


def sources() -> list:
    for d in SOURCE_DIRS:
        if not d.is_dir():
            raise BuildError(f"missing source directory {d.relative_to(ROOT)}")
    files = sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources found")
    return files


class Build:
    def __init__(self, jars: Path):
        self.jar = OUT / "perfbench.jar"
        self.archive = OUT / "app.jsa"
        self.classpath = os.pathsep.join([str(self.jar)] + [str(j) for j in sorted(jars.glob("*.jar"))])

    def command(self, extra_jvm=()) -> list:
        return [java(), *JVM_OPTS, *extra_jvm, "-cp", self.classpath, MAIN]

    def run_command(self, tmp: Path) -> list:
        return self.command([f"-XX:SharedArchiveFile={self.archive}", f"-Djava.io.tmpdir={tmp}"])


def child_env(tmp: Path) -> dict:
    """Keep Spark's scratch files inside `tmp` (the caller passes the JVM's too)."""
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, SPARK_LOCAL_DIRS=str(tmp))


def stamp(files: list, jars: Path) -> str:
    h = hashlib.sha256()
    for f in files + [BENCH / "build.py", BENCH / "log4j2.properties"]:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    h.update(subprocess.run([java(), "-XX:-UsePerfData", "-version"], capture_output=True, text=True).stderr.encode())
    h.update("\n".join(sorted(j.name for j in jars.glob("*.jar"))).encode())
    return h.hexdigest()


def ensure_built() -> Build:
    jars = spark_jars()
    files = sources()
    key = stamp(files, jars)
    b = Build(jars)
    stamp_file = OUT / "stamp"
    if stamp_file.exists() and stamp_file.read_text() == key and b.archive.exists():
        return b

    shutil.rmtree(OUT, ignore_errors=True)
    classes = OUT / "classes"
    classes.mkdir(parents=True)
    compiler_cp = os.pathsep.join(str(j) for j in sorted(jars.glob("*.jar")))
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    r = subprocess.run([java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", compiler_cp, "scala.tools.nsc.Main",
                        "-nowarn", "-d", str(classes), "-cp", compiler_cp, *map(str, files)],
                       cwd=ROOT, timeout=600)
    if r.returncode != 0:
        raise BuildError("compilation failed")
    with zipfile.ZipFile(b.jar, "w", zipfile.ZIP_STORED) as z:
        for p in sorted(classes.rglob("*")):
            if p.is_file():
                z.write(p, p.relative_to(classes).as_posix())
    shutil.rmtree(classes)

    print("perfbench: recording the class-data sharing archive", file=sys.stderr)
    tmp = OUT / "tmp-training"
    try:
        r = subprocess.run(b.command([f"-XX:ArchiveClassesAtExit={b.archive}", f"-Djava.io.tmpdir={tmp}"]) + TRAINING_ARGS,
                           cwd=ROOT, env=child_env(tmp), stdout=subprocess.DEVNULL, timeout=300)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if r.returncode != 0 or not b.archive.exists():
        raise BuildError("training run for the class-data sharing archive failed")
    stamp_file.write_text(key)
    return b


if __name__ == "__main__":
    try:
        ensure_built()
    except (BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench build: {e}", file=sys.stderr)
        sys.exit(2)
