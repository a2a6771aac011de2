package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import BenchUtil._

/** Fig 7: distributed GROUP BY.
  * Paper shape: runtime decreases with more machines (left); nearly flat in
  * values-per-key, dominated by network + materialization (right).
  */
class Fig7GroupByBench extends AnyFunSuite {
  private val n = envInt("REPRO_GROUPBY_ROWS", 2_000_000)

  test("Fig 7 left — runtime vs machines") {
    println(GroupByBench.fig7Left(n, Seq(2, 4, 8)))
  }

  test("Fig 7 right — runtime vs values per key") {
    println(GroupByBench.fig7Right(n, Seq(2, 4, 8), Seq(1, 2, 4, 8)))
  }

  test("shape: more machines do not slow the aggregation down dramatically") {
    val (ms2, g2) = GroupByBench.bestRun(n / 2, 2, 1, reps = 2)
    val (ms8, g8) = GroupByBench.bestRun(n / 2, 8, 1, reps = 2)
    assert(g2 == g8, "group count must not depend on the cluster size")
    assert(ms8 < ms2 * 2.0, s"8 machines ($ms8 ms) vs 2 machines ($ms2 ms)")
  }
}
