"""Build file of the benchmark: compiles the program's main sources and the
harness under perfbench/src with the Scala compiler, straight into
.bench_build/perfbench, and skips the work when nothing changed.

It reads the toolchain from what the repository's build.sbt already uses:
the Scala version and the DuckDB JDBC version from build.sbt, the Spark jar
directory from $SPARK_HOME/jars (or build.sbt's unmanagedBase), the Scala
compiler from that jar directory or the local coursier cache. It never
resolves anything over the network.

    python3 perfbench/build.py        # from the repository root
"""

import glob
import hashlib
import os
import re
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")


class BuildError(Exception):
    pass


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def _sources(d):
    out = []
    for base, _, files in os.walk(d):
        out += [os.path.join(base, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def _coursier_jar(name):
    cache = os.environ.get("COURSIER_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "coursier", "v1")
    org, art, ver = name
    hits = glob.glob(os.path.join(cache, "**", *org.split("."), art, ver, f"{art}-{ver}.jar"),
                     recursive=True)
    return sorted(hits)[0] if hits else None


def toolchain(root):
    """The compiler classpath and the program's compile/run classpath."""
    sbt = os.path.join(root, "build.sbt")
    if not os.path.isfile(sbt):
        raise BuildError(f"no build.sbt under {root}: run from the repository root")
    text = _read(sbt)
    scala = re.search(r'scalaVersion\s*:=\s*"([^"]+)"', text)
    duck = re.search(r'"org\.duckdb"\s*%\s*"duckdb_jdbc"\s*%\s*"([^"]+)"', text)
    if not scala or not duck:
        raise BuildError("build.sbt names no scalaVersion or duckdb_jdbc version")
    scala, duck = scala.group(1), duck.group(1)

    spark_home = os.environ.get("SPARK_HOME")
    jars = os.path.join(spark_home, "jars") if spark_home else None
    if not jars or not os.path.isdir(jars):
        base = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', text)
        jars = base.group(1) if base else None
    if not jars or not os.path.isdir(jars):
        raise BuildError("no Spark jar directory: set SPARK_HOME")
    spark_jars = sorted(glob.glob(os.path.join(jars, "*.jar")))

    compiler = []
    for art in ("scala-compiler", "scala-library", "scala-reflect"):
        jar = os.path.join(jars, f"{art}-{scala}.jar")
        if not os.path.isfile(jar):
            jar = _coursier_jar(("org.scala-lang", art, scala))
        if not jar:
            raise BuildError(f"{art} {scala} is in neither the Spark jars nor the coursier cache")
        compiler.append(jar)
    duck_jar = _coursier_jar(("org.duckdb", "duckdb_jdbc", duck))
    if not duck_jar:
        raise BuildError(f"duckdb_jdbc {duck} is not in the coursier cache")
    return compiler, spark_jars + [duck_jar]


def _java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else None
    return exe if exe and os.path.isfile(exe) else "java"


def _scalac(compiler, classpath, out, sources):
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    argfile = tmp + ".args"
    with open(argfile, "w", encoding="utf-8") as f:
        f.write("\n".join(sources))
    cmd = [_java(), "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", tmp,
           "-classpath", os.pathsep.join(classpath), "@" + argfile]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=800)
    os.remove(argfile)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise BuildError(f"scalac failed on {len(sources)} files into {out}")
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)


def _digest(paths, extra=""):
    h = hashlib.sha256(extra.encode())
    for p in paths:
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build(root):
    """Compile what changed; return (run classpath, program source digest)."""
    program = _sources(os.path.join(root, "src", "main", "scala"))
    harness = _sources(os.path.join(root, "perfbench", "src"))
    if not program:
        raise BuildError(f"no program sources under {root}/src/main/scala")
    if not harness:
        raise BuildError(f"no harness sources under {root}/perfbench/src")
    compiler, libs = toolchain(root)
    rel = lambda ps: [os.path.relpath(p, root) for p in ps]
    src_digest = _digest(rel(program))
    out = os.path.join(root, BUILD_DIR)
    os.makedirs(out, exist_ok=True)

    steps = [("program", program, libs, src_digest + "\n".join(compiler + libs)),
             ("harness", harness, libs + [os.path.join(out, "program")], None)]
    classpath = []
    for name, sources, cp, key in steps:
        key = key if key is not None else _digest(rel(sources), src_digest)
        stamp = os.path.join(out, name + ".stamp")
        target = os.path.join(out, name)
        if not (os.path.isdir(target) and os.path.isfile(stamp) and _read(stamp) == key):
            _scalac(compiler, cp, target, sources)
            with open(stamp, "w", encoding="utf-8") as f:
                f.write(key)
        classpath.append(target)
    return os.pathsep.join(classpath + libs), src_digest


if __name__ == "__main__":
    try:
        cp, digest = build(os.getcwd())
    except (BuildError, subprocess.TimeoutExpired) as e:
        sys.exit(f"build failed: {e}")
    print(f"built program sha256:{digest}")
