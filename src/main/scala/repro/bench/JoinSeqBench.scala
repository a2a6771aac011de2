package repro.bench

import repro.core.RowVec
import repro.mpi.Phase
import repro.plans.{JoinSequencePlan, Workloads}
import repro.plans.PlanPieces.DistConfig
import BenchUtil._

/** Fig 8 reproduction: sequences of joins on the same attribute — naive
  * (re-shuffle every intermediate; 2N exchanges) vs optimized (exchange all
  * N+1 relations up-front). Sub-plots: (a) runtime vs machines; (b) runtime
  * vs first-join output size; (c) network time/bytes vs output size;
  * (d) runtime vs number of joins. Relations: ⟨8B,8B⟩, `n` tuples each
  * (paper: 2048 M).
  */
object JoinSeqBench {

  final case class SeqResult(
      totalMs: Double, networkMs: Double, bytes: Long, rows: Long)

  /** Duplication only on the first two relations: the FIRST join's output
    * grows as dup*n (the Fig 8b x-axis) while later joins stay selective.
    */
  private def relations(n: Int, nRel: Int, dup: Int, c: DistConfig): Vector[Vector[RowVec]] =
    (0 until nRel).map(i =>
      Workloads.shard(
        Workloads.densePairs(n, if (i < 2) dup else 1, seed = 100 + i), c.nRanks)).toVector

  private def runOn(rels: Vector[Vector[RowVec]], c: DistConfig, optimized: Boolean): SeqResult = {
    val (stream, exec) = JoinSequencePlan.driver(rels, c, optimized)
    val (rows, ms) = drainTimed(stream)
    val report = exec.report
    SeqResult(ms, report.slowestNanos(Phase.networkPartition) / 1e6, report.bytesPut, rows)
  }

  def runOnce(n: Int, machines: Int, nRel: Int, dup: Int, optimized: Boolean): SeqResult = {
    val c = cluster(machines)
    runOn(relations(n, nRel, dup, c), c, optimized)
  }

  /** Best of `reps` runs after one warm-up on a single generated input
    * (robust to shared-JVM GC noise).
    */
  def bestRun(n: Int, machines: Int, nRel: Int, dup: Int, optimized: Boolean,
              reps: Int = 3): SeqResult = {
    val c = cluster(machines)
    val rels = relations(n, nRel, dup, c)
    best(reps)(runOn(rels, c, optimized))(_.totalMs)
  }

  /** Fig 8a: 2-join sequence (3 relations), naive vs optimized vs machines. */
  def fig8a(n: Int, machineCounts: Seq[Int]): String = {
    val rows = machineCounts.map { m =>
      val o = bestRun(n, m, 3, 1, optimized = true)
      val v = bestRun(n, m, 3, 1, optimized = false)
      require(o.rows == v.rows)
      Seq(m.toString, fmt(v.totalMs), fmt(o.totalMs), f"${v.totalMs / o.totalMs}%.2fx")
    }
    table(s"Fig 8a — 2-join sequence runtime vs machines (n=$n/relation)",
      Seq("machines", "naive (ms)", "optimized (ms)", "naive/optimized"), rows)
  }

  /** Fig 8b+8c: runtime and network cost vs first-join output size
    * (key duplication factor scales the intermediate linearly).
    */
  def fig8bc(n: Int, machines: Int, dups: Seq[Int]): String = {
    val rows = dups.map { d =>
      val o = bestRun(n, machines, 3, d, optimized = true)
      val v = bestRun(n, machines, 3, d, optimized = false)
      Seq(s"${d}x (${o.rows} rows)",
        fmt(v.totalMs), fmt(o.totalMs),
        fmt(v.networkMs), fmt(o.networkMs),
        (v.bytes / 1024 / 1024).toString + " MiB",
        (o.bytes / 1024 / 1024).toString + " MiB")
    }
    table(s"Fig 8b/8c — 2-join sequence vs join output size ($machines machines, n=$n/relation)",
      Seq("join output", "naive (ms)", "optimized (ms)",
        "naive net (ms)", "optimized net (ms)", "naive shuffled", "optimized shuffled"),
      rows)
  }

  /** Fig 8d: runtime vs number of joins. */
  def fig8d(n: Int, machines: Int, joinCounts: Seq[Int]): String = {
    val rows = joinCounts.map { j =>
      val o = bestRun(n, machines, j + 1, 1, optimized = true, reps = 5)
      val v = bestRun(n, machines, j + 1, 1, optimized = false, reps = 5)
      require(o.rows == v.rows)
      Seq(j.toString, fmt(v.totalMs), fmt(o.totalMs), f"${v.totalMs - o.totalMs}%.1f")
    }
    table(s"Fig 8d — runtime vs number of joins ($machines machines, n=$n/relation)",
      Seq("joins", "naive (ms)", "optimized (ms)", "difference (ms)"), rows)
  }
}
