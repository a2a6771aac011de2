package repro.bench

import repro.core.SubOp
import repro.mpi.NetConfig
import repro.plans.PlanPieces.DistConfig

/** The harness of the `bench/` suites: the simulated cluster, environment
  * knobs, timing, and the markdown tables each suite prints (one per paper
  * table/figure; paper numbers alongside ours live in EXPERIMENTS.md).
  */
object BenchUtil {

  /** The simulated cluster of every bench (Table 2 substitute): two ranks
    * (simulated cores) per machine, QDR-InfiniBand-like 3 GB/s
    * cross-machine bandwidth and 1.5 µs per message, 2^5 network and 2^4
    * local partitions.
    */
  def cluster(machines: Int): DistConfig = DistConfig(
    nRanks = machines * 2,
    net = NetConfig(ranksPerMachine = 2, crossBytesPerSec = 3_000_000_000L, msgLatencyNanos = 1_500),
    netBits = 5, localBits = 4)

  def envInt(name: String, default: Int): Int =
    sys.env.get(name).map(_.toInt).getOrElse(default)
  def envDouble(name: String, default: Double): Double =
    sys.env.get(name).map(_.toDouble).getOrElse(default)

  def timeMs[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Run once discarded, collect the heap, then return the fastest of `n`
    * runs by `ms` — the robust estimator on a shared JVM where major GCs
    * land on random runs.
    */
  def best[T](n: Int)(run: => T)(ms: T => Double): T = {
    run
    System.gc()
    (1 to n).map(_ => run).minBy(ms)
  }

  /** Open `stream`, count its rows and close it: (rows, wall ms). */
  def drainTimed(stream: SubOp): (Long, Double) = timeMs {
    var rows = 0L
    stream.open()
    var t = stream.next()
    while (t != null) { rows += 1; t = stream.next() }
    stream.close()
    rows
  }

  def fmt(d: Double): String = f"$d%.1f"

  /** Render a markdown table; every suite prints its figure/table this way,
    * in the layout of EXPERIMENTS.md.
    */
  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append(s"\n### $title\n\n")
    sb.append(header.mkString("| ", " | ", " |\n"))
    sb.append(header.map(_ => "---").mkString("| ", " | ", " |\n"))
    rows.foreach(r => sb.append(r.mkString("| ", " | ", " |\n")))
    sb.toString
  }
}
