package repro.plans

import org.scalatest.funsuite.AnyFunSuite

import repro.monolith.MonolithicRadixJoin
import repro.mpi.NetConfig
import repro.plans.PlanPieces.DistConfig
import repro.plans.RadixJoinPlan.JoinSpec

/** Inputs outside the radix-compressed word's domain (0 ≤ v < 2^32,
  * 0 ≤ k < 2^(32+F)) on 2 ranks with F = netBits = 3: every compressed path
  * refuses them with an IllegalArgumentException, every uncompressed path
  * returns the reference answer.
  */
class RadixDomainSpec extends AnyFunSuite {
  private val nRanks = 2
  private val net =
    NetConfig(ranksPerMachine = 1, crossBytesPerSec = Long.MaxValue, msgLatencyNanos = 0)
  private def cfg(compress: Boolean) =
    DistConfig(nRanks = nRanks, net = net, netBits = 3, localBits = 2, compress = compress)

  private def rows(kvs: Seq[(Long, Long)]): Array[Array[Any]] =
    kvs.map { case (k, v) => Array[Any](k, v) }.toArray

  private def canon(rows: Iterable[Array[Any]]): Map[Seq[Any], Int] =
    rows.map(_.toSeq).groupBy(identity).view.mapValues(_.size).toMap

  private def modularJoin(r: Array[Array[Any]], s: Array[Array[Any]], compress: Boolean) =
    RadixJoinPlan.driver(
      Workloads.shard(r, nRanks), Workloads.shard(s, nRanks),
      Workloads.pairTypeNamed("rv"), Workloads.pairTypeNamed("sv"),
      JoinSpec(cfg(compress)))._1.drain()

  /** The join refuses `r ⋈ s` compressed, in the modular plan and the
    * monolith, and returns `expectedRows` rows equal to the reference
    * uncompressed.
    */
  private def checkJoin(r: Array[Array[Any]], s: Array[Array[Any]], expectedRows: Int): Unit = {
    val ref = Workloads.referenceJoin(r.toSeq, s.toSeq)
    val got = modularJoin(r, s, compress = false)
    assert(got.size == expectedRows)
    assert(canon(got) == ref.map { case ((k, rv, sv), n) => Seq[Any](k, rv, sv) -> n })
    intercept[IllegalArgumentException](modularJoin(r, s, compress = true))
    intercept[IllegalArgumentException](MonolithicRadixJoin.run(
      Workloads.shard(r, nRanks), Workloads.shard(s, nRanks), nRanks, net, 3, 2))
  }

  private val dense = rows((0L until 64L).map(k => k -> k))

  test("negative payloads") {
    checkJoin(rows((0L until 64L).map(k => k -> (-1L - k))), dense, 64)
  }

  test("payloads of 2^33 and above") {
    checkJoin(rows((0L until 64L).map(k => k -> ((1L << 33) + k))), dense, 64)
  }

  test("negative keys") {
    val neg = rows((1L to 64L).map(k => -k -> k))
    checkJoin(neg, neg, 64)
  }

  test("keys 8 and 8 + 2^35 do not match") {
    checkJoin(rows(Seq(8L -> 1L)), rows(Seq((8L + (1L << 35)) -> 2L)), 0)
  }

  test("GROUP BY with negative values") {
    val data = rows((0L until 64L).map(i => (i % 8) -> (-1L - i)))
    def groupBy(compress: Boolean) =
      GroupByPlan.driver(Workloads.shard(data, nRanks), Workloads.PairType, cfg(compress))._1
        .drain().map(t => t(0).asInstanceOf[Long] -> t(1).asInstanceOf[Long]).toMap
    val got = groupBy(compress = false)
    assert(got.size == 8)
    assert(got == Workloads.referenceGroupSum(data.toSeq))
    intercept[IllegalArgumentException](groupBy(compress = true))
  }
}
