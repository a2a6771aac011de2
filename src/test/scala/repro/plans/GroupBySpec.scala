package repro.plans

import org.scalatest.funsuite.AnyFunSuite

import repro.mpi.{NetConfig, Phase}
import repro.plans.PlanPieces.DistConfig

class GroupBySpec extends AnyFunSuite {
  private def cfg(nRanks: Int, compress: Boolean = true) = DistConfig(
    nRanks = nRanks,
    net = NetConfig(ranksPerMachine = 1, crossBytesPerSec = Long.MaxValue, msgLatencyNanos = 0),
    netBits = 3, localBits = 2, compress = compress)

  private def runGroupBy(n: Int, nRanks: Int, dup: Int, compress: Boolean = true)
      : Map[Long, Long] = {
    val rows = Workloads.densePairs(n, dup, seed = 9)
    val (stream, _) = GroupByPlan.driver(
      Workloads.shard(rows, nRanks), Workloads.PairType, cfg(nRanks, compress))
    val out = stream.drain()
    assert(out.map(_(0)).distinct.size == out.size, s"a key occurs twice at n=$n ranks=$nRanks dup=$dup")
    val got = out.map(t => t(0).asInstanceOf[Long] -> t(1).asInstanceOf[Long]).toMap
    val exp = Workloads.referenceGroupSum(rows.toSeq)
    assert(got == exp, s"group-by mismatch at n=$n ranks=$nRanks dup=$dup")
    got
  }

  test("distributed GROUP BY matches reference (1 rank)") {
    assert(runGroupBy(64, 1, dup = 1).size == 64)
  }

  test("distributed GROUP BY matches reference (2 ranks, unique keys)") {
    assert(runGroupBy(128, 2, dup = 1).size == 128)
  }

  test("distributed GROUP BY matches reference (4 ranks, dup=4)") {
    assert(runGroupBy(256, 4, dup = 4).size == 64)
  }

  test("distributed GROUP BY matches reference (8 ranks, dup=8)") {
    assert(runGroupBy(512, 8, dup = 8).size == 64)
  }

  test("distributed GROUP BY without compression matches reference") {
    assert(runGroupBy(128, 2, dup = 2, compress = false).size == 64)
  }

  test("aggregate phase appears in rank timers") {
    val rows = Workloads.densePairs(128, 2, seed = 10)
    val (stream, exec) = GroupByPlan.driver(
      Workloads.shard(rows, 2), Workloads.PairType, cfg(2))
    stream.drain()
    val report = exec.report
    assert(report.slowestNanos(Phase.aggregate) > 0)
    assert(report.slowestNanos(Phase.networkPartition) > 0)
  }

  test("group count independent of rank count") {
    val a = runGroupBy(256, 2, dup = 4)
    val b = runGroupBy(256, 8, dup = 4)
    assert(a == b)
  }
}
