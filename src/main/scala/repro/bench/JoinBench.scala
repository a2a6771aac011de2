package repro.bench

import repro.core.RowVec
import repro.monolith.MonolithicRadixJoin
import repro.mpi.{Phase, RunReport}
import repro.plans.{RadixJoinPlan, Workloads}
import repro.plans.PlanPieces.DistConfig
import repro.plans.RadixJoinPlan.JoinSpec
import BenchUtil._

/** Fig 6 reproduction: the monolithic RDMA-style radix join vs. the
  * Modularis sub-operator plan — per-phase breakdown (6a) and total runtime
  * across simulated machine counts (6b). Workload: two ⟨8B,8B⟩ relations
  * with a 1-on-1 key correspondence (paper: 2048 M tuples; here `n` per
  * relation — DESIGN.md scaling substitution).
  *
  * Inputs are generated once per machine configuration and reused across
  * repetitions so the timed region measures the join; the reported number
  * is the best of 5 runs (robust under shared-JVM GC noise).
  */
object JoinBench {
  private val Phases = Phase.values.toVector.filter(_ != Phase.aggregate) // the monolith's five

  final case class RunResult(totalMs: Double, report: RunReport, rows: Long)

  private def inputs(n: Int, c: DistConfig): (Vector[RowVec], Vector[RowVec]) = {
    val r = Workloads.shard(Workloads.densePairs(n, 1, seed = 1), c.nRanks)
    val s = Workloads.shard(Workloads.densePairs(n, 1, seed = 2), c.nRanks)
    System.gc()
    (r, s)
  }

  private def runMonolithOn(r: Vector[RowVec], s: Vector[RowVec], c: DistConfig): RunResult = {
    val (results, ms) = timeMs {
      MonolithicRadixJoin.run(r, s, c.nRanks, c.net, c.netBits, c.localBits)
    }
    RunResult(ms, RunReport(results.map(_.timer), results.map(_.stats)),
      MonolithicRadixJoin.totalRows(results))
  }

  private def runModularisOn(r: Vector[RowVec], s: Vector[RowVec], c: DistConfig): RunResult = {
    val (stream, exec) = RadixJoinPlan.driver(
      r, s, Workloads.pairTypeNamed("rv"), Workloads.pairTypeNamed("sv"), JoinSpec(c))
    val (rows, ms) = drainTimed(stream)
    RunResult(ms, exec.report, rows)
  }

  def runMonolith(n: Int, machines: Int): RunResult = {
    val c = cluster(machines); val (r, s) = inputs(n, c)
    runMonolithOn(r, s, c)
  }

  def runModularis(n: Int, machines: Int): RunResult = {
    val c = cluster(machines); val (r, s) = inputs(n, c)
    runModularisOn(r, s, c)
  }

  /** Best of 5 runs for both implementations on shared inputs. */
  private def measure(n: Int, machines: Int): (RunResult, RunResult) = {
    val c = cluster(machines)
    val (r, s) = inputs(n, c)
    val mono = best(5)(runMonolithOn(r, s, c))(_.totalMs)
    val mod  = best(5)(runModularisOn(r, s, c))(_.totalMs)
    require(mono.rows == mod.rows, s"monolith ${mono.rows} != modularis ${mod.rows}")
    (mono, mod)
  }

  /** Fig 6a: per-phase breakdown at the given machine counts, then how much of the query they cover. */
  def fig6a(n: Int, machineCounts: Seq[Int]): String = {
    val results = machineCounts.map(m => m -> measure(n, m))
    val header = "phase" +: results.flatMap { case (m, _) =>
      Seq(s"monolith ${m}m (ms)", s"modularis ${m}m (ms)")
    }
    def row(name: String)(ms: RunResult => Double): Seq[String] =
      name +: results.flatMap { case (_, (mono, mod)) => Seq(fmt(ms(mono)), fmt(ms(mod))) }
    val rows = Phases.map(p => row(p.toString)(_.report.slowestNanos(p) / 1e6)) ++ Seq(
      row("sum of phases (max over ranks)")(_.report.busiestRankNanos / 1e6),
      row("query total")(_.totalMs))
    table(s"Fig 6a — join phase breakdown (n=$n tuples/relation)", header, rows)
  }

  /** Fig 6b: total runtime vs machines, with the modular overhead ratio
    * (paper: 12–28 % slower).
    */
  def fig6b(n: Int, machineCounts: Seq[Int]): String = {
    val rows = machineCounts.map { m =>
      val (mono, mod) = measure(n, m)
      Seq(m.toString, fmt(mono.totalMs), fmt(mod.totalMs),
        f"${(mod.totalMs / mono.totalMs - 1) * 100}%.0f%%", mono.rows.toString)
    }
    table(s"Fig 6b — join total runtime vs machines (n=$n tuples/relation)",
      Seq("machines", "monolith (ms)", "modularis (ms)", "modular overhead", "output rows"),
      rows)
  }
}
