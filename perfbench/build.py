#!/usr/bin/env python3
"""Build file of the benchmark.

Compiles the repository's main sources (src/main/scala) together with the
benchmark's own sources (perfbench/src) into .bench_build/perfbench/classes,
using the Scala compiler that ships in the Spark distribution's jars
directory ($SPARK_HOME/jars, or the one beside spark-submit on PATH).
A digest of the sources and the jar list is kept next to the classes, so an
unchanged tree is not compiled again.

    python3 perfbench/build.py
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return Path(home) / "jars"


def _jar(jars: Path, prefix: str) -> Path:
    found = sorted(jars.glob(prefix + "-2.*.jar"))
    if not found:
        raise BuildError(f"{prefix} jar not found in {jars}")
    return found[-1]


def sources() -> list:
    main = ROOT / "src" / "main" / "scala"
    if not main.is_dir():
        raise BuildError(f"repository sources not found: {main.relative_to(ROOT)}")
    return sorted(main.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala"))


def build() -> str:
    """Compile if needed; return the runtime classpath."""
    jars = spark_jars()
    srcs = sources()
    h = hashlib.sha256()
    for name in sorted(p.name for p in jars.glob("*.jar")):
        h.update(name.encode())
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    digest = h.hexdigest()
    classes = OUT / "classes"
    stamp = OUT / "classes.sha256"
    classpath = f"{classes}{os.pathsep}{jars / '*'}"
    if classes.is_dir() and stamp.is_file() and stamp.read_text() == digest:
        return classpath
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    argfile = OUT / "sources.txt"
    argfile.write_text("\n".join(f'"{p}"' for p in srcs) + "\n")
    compiler_cp = os.pathsep.join(
        str(_jar(jars, n)) for n in ("scala-compiler", "scala-library", "scala-reflect"))
    # -XX:-UsePerfData: the JVM would otherwise write its counters to the system temp dir.
    cmd = [java(), "-Xss8m", "-Xmx1536m", "-XX:-UsePerfData", "-cp", compiler_cp, "scala.tools.nsc.Main",
           "-nowarn", "-d", str(classes), "-cp", str(jars / "*"), f"@{argfile}"]
    if subprocess.run(cmd, cwd=ROOT).returncode != 0:
        raise BuildError("compilation failed")
    stamp.write_text(digest)
    return classpath


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        sys.exit(2)
