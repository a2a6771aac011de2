package repro.bench

import repro.mpi.NetConfig

/** Shared benchmark harness helpers: timing, environment knobs, and the
  * markdown tables each bench prints (one per paper table/figure; paper
  * numbers alongside ours live in EXPERIMENTS.md).
  */
object BenchUtil {

  /** Simulated cluster topology used by all benches (Table 2 substitute):
    * ranks-per-machine 2 (two simulated cores per machine, bounded by the
    * 16-core driver), QDR-InfiniBand-like 3 GB/s cross-machine bandwidth.
    */
  val RanksPerMachine = 2
  def netFor(machines: Int): NetConfig = NetConfig(
    ranksPerMachine = RanksPerMachine,
    crossBytesPerSec = 3_000_000_000L,
    msgLatencyNanos = 1_500)

  def envInt(name: String, default: Int): Int =
    sys.env.get(name).map(_.toInt).getOrElse(default)
  def envDouble(name: String, default: Double): Double =
    sys.env.get(name).map(_.toDouble).getOrElse(default)

  def timeMs[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Minimum of `n` timed runs (after `warmup` discarded runs) — the robust
    * estimator on a shared JVM where major GCs land on random runs.
    */
  def minMs(n: Int, warmup: Int = 1)(f: => Unit): Double = {
    var i = 0
    while (i < warmup) { f; i += 1 }
    var best = Double.MaxValue
    i = 0
    while (i < n) { best = math.min(best, timeMs(f)._2); i += 1 }
    best
  }

  def fmt(d: Double): String = f"$d%.1f"

  /** Render a markdown table; every bench prints its figure/table this way
    * so `bench_output.txt` is directly diffable against EXPERIMENTS.md.
    */
  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append(s"\n### $title\n\n")
    sb.append(header.mkString("| ", " | ", " |\n"))
    sb.append(header.map(_ => "---").mkString("| ", " | ", " |\n"))
    rows.foreach(r => sb.append(r.mkString("| ", " | ", " |\n")))
    sb.toString
  }

  def banner(s: String): Unit = {
    println("=" * 72)
    println(s)
    println("=" * 72)
  }
}
