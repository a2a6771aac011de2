package repro.bench

import repro.core.RowVec
import repro.plans.{GroupByPlan, Workloads}
import repro.plans.PlanPieces.DistConfig
import BenchUtil._

/** Fig 7 reproduction: distributed GROUP BY runtime — varying cluster size
  * at fixed key cardinality (left plot) and varying key cardinality (values
  * per key) for different cluster sizes (right plot). Workload: ⟨8B,8B⟩
  * tuples (paper: 2048 M keys; here `n`).
  */
object GroupByBench {

  private def runOn(parts: Vector[RowVec], c: DistConfig): (Double, Long) = {
    val (stream, _) = GroupByPlan.driver(parts, Workloads.PairType, c)
    val (groups, ms) = drainTimed(stream)
    (ms, groups)
  }

  /** Best of `reps` runs after one warm-up on a single generated input
    * (robust to shared-JVM GC noise): (ms, groups).
    */
  def bestRun(n: Int, machines: Int, dup: Int, reps: Int): (Double, Long) = {
    val c = cluster(machines)
    val parts = Workloads.shard(Workloads.densePairs(n, dup, seed = 7), c.nRanks)
    best(reps)(runOn(parts, c))(_._1)
  }

  /** Fig 7 left: runtime vs machines, each key occurring once. */
  def fig7Left(n: Int, machineCounts: Seq[Int]): String = {
    val rows = machineCounts.map { m =>
      val (ms, groups) = bestRun(n, m, dup = 1, reps = 3)
      Seq(m.toString, fmt(ms), groups.toString)
    }
    table(s"Fig 7 (left) — GROUP BY runtime vs machines (n=$n keys, 1 value/key)",
      Seq("machines", "runtime (ms)", "groups"), rows)
  }

  /** Fig 7 right: runtime vs values-per-key for several cluster sizes —
    * the paper observes near-constant time (network + materialization
    * dominate) with a slight decrease at higher multiplicity.
    */
  def fig7Right(n: Int, machineCounts: Seq[Int], dups: Seq[Int]): String = {
    val rows = dups.map { d =>
      d.toString +: machineCounts.map(m => fmt(bestRun(n, m, d, reps = 3)._1))
    }
    table(s"Fig 7 (right) — GROUP BY runtime vs values/key (n=$n tuples)",
      "values per key" +: machineCounts.map(m => s"$m machines (ms)"), rows)
  }
}
