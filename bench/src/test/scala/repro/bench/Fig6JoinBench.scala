package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import BenchUtil._

/** Fig 6: distributed radix join — monolithic vs Modularis.
  * Paper shape to reproduce: the modular plan is 12–28 % slower overall,
  * with the gap concentrated in the pipelined phases.
  */
class Fig6JoinBench extends AnyFunSuite {
  private val n = envInt("REPRO_JOIN_ROWS", 2_000_000)

  test("Fig 6a — phase breakdown at 4 and 8 machines") {
    println(JoinBench.fig6a(n, Seq(4, 8)))
  }

  test("Fig 6b — total runtime vs machines, overhead ratio") {
    println(JoinBench.fig6b(n, Seq(2, 4, 8)))
  }

  test("shape: modular overhead is bounded (paper: 1.12-1.28x; ours is larger " +
      "without the paper's LLVM pipeline inlining, but must stay within ~4x)") {
    val mono = best(3)(JoinBench.runMonolith(n / 2, 4))(_.totalMs)
    val mod  = best(3)(JoinBench.runModularis(n / 2, 4))(_.totalMs)
    assert(mono.rows == mod.rows, "both implementations must agree on the result")
    assert(mod.totalMs < mono.totalMs * 4.0,
      s"modular ${mod.totalMs} ms should be within 4x of monolith ${mono.totalMs} ms")
  }
}
