package repro.plans

import org.scalatest.funsuite.AnyFunSuite

import repro.core._
import repro.mpi.NetConfig
import repro.plans.PlanPieces.DistConfig

class JoinSeqSpec extends AnyFunSuite {
  private def cfg(nRanks: Int, compress: Boolean = true) = DistConfig(
    nRanks = nRanks,
    net = NetConfig(ranksPerMachine = 1, crossBytesPerSec = Long.MaxValue, msgLatencyNanos = 0),
    netBits = 3, localBits = 2, compress = compress)

  /** Canonicalize a joined stream: per tuple, key + sorted field-name/value
    * pairs (naive and optimized emit different field orders).
    */
  private def canon(stream: SubOp): Seq[String] =
    stream.drain().map { t =>
      stream.outType.fieldNames.zip(t).sortBy(_._1).mkString(",")
    }.toSeq.sorted

  private def relations(nRel: Int, n: Int, dup: Int, nRanks: Int)
      : Vector[Vector[RowVec]] =
    (0 until nRel).map(i =>
      Workloads.shard(Workloads.densePairs(n, dup, seed = 100 + i), nRanks)).toVector

  for (compress <- Seq(true, false)) {
    val tag = if (compress) "" else " without compression"

    test(s"optimized 2-join sequence matches reference cardinality$tag") {
      val rels = relations(3, 64, 1, 2)
      val (stream, _) = JoinSequencePlan.driver(rels, cfg(2, compress), optimized = true)
      assert(stream.drain().size == 64)
    }

    test(s"naive == optimized for 2 joins (3 relations)$tag") {
      val rels = relations(3, 64, 1, 2)
      val (o, _) = JoinSequencePlan.driver(rels, cfg(2, compress), optimized = true)
      val (nv, _) = JoinSequencePlan.driver(rels, cfg(2, compress), optimized = false)
      assert(canon(o) == canon(nv))
    }

    test(s"naive == optimized for 3 joins (4 relations)$tag") {
      val rels = relations(4, 64, 1, 2)
      val (o, _) = JoinSequencePlan.driver(rels, cfg(2, compress), optimized = true)
      val (nv, _) = JoinSequencePlan.driver(rels, cfg(2, compress), optimized = false)
      assert(canon(o) == canon(nv))
    }

    test(s"naive == optimized with duplicated keys (growing intermediate)$tag") {
      val rels = relations(3, 64, 2, 2)
      val (o, _) = JoinSequencePlan.driver(rels, cfg(2, compress), optimized = true)
      val (nv, _) = JoinSequencePlan.driver(rels, cfg(2, compress), optimized = false)
      val co = canon(o)
      assert(co == canon(nv))
      // dup=2 on all three relations: 64/2=32 keys, each 2×2×2 combinations
      assert(co.size == 32 * 8)
    }

    test(s"naive == optimized on 4 ranks$tag") {
      val rels = relations(3, 128, 1, 4)
      val (o, _) = JoinSequencePlan.driver(rels, cfg(4, compress), optimized = true)
      val (nv, _) = JoinSequencePlan.driver(rels, cfg(4, compress), optimized = false)
      assert(canon(o) == canon(nv))
    }
  }

  test("optimized plan runs N+1 exchanges, naive runs 2N (by wire bytes)") {
    def bytes(optimized: Boolean): Long = {
      val rels = relations(3, 256, 1, 4)
      val (stream, exec) = JoinSequencePlan.driver(rels, cfg(4), optimized = optimized)
      stream.drain()
      exec.report.bytesPut
    }
    val o = bytes(true)
    val n = bytes(false)
    // optimized: 3 compressed base exchanges. naive: 3 compressed + 1
    // uncompressed 24 B-tuple intermediate — strictly more wire traffic.
    assert(n > o, s"naive=$n should exceed optimized=$o")
    val expOpt = 3L * 256 * 8
    assert(o == expOpt, s"optimized should ship exactly $expOpt bytes, got $o")
    val expNaive = expOpt + 256L * 24
    assert(n == expNaive, s"naive should ship exactly $expNaive bytes, got $n")
  }

  test("driver rejects mis-sharded inputs") {
    val rels = relations(3, 64, 1, 2)
    intercept[IllegalArgumentException] {
      JoinSequencePlan.driver(rels, cfg(4), optimized = true)
    }
  }
}
