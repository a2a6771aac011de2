package repro.plans

import org.scalatest.funsuite.AnyFunSuite

import repro.core._
import repro.mpi.NetConfig
import repro.plans.PlanPieces.DistConfig
import repro.plans.RadixJoinPlan.JoinSpec

class RadixJoinSpec extends AnyFunSuite {
  private def cfg(nRanks: Int, compress: Boolean = true) = DistConfig(
    nRanks = nRanks,
    net = NetConfig(ranksPerMachine = 1, crossBytesPerSec = Long.MaxValue, msgLatencyNanos = 0),
    netBits = 3, localBits = 2, compress = compress)

  private def runJoin(n: Int, nRanks: Int, dup: Int = 1, compress: Boolean = true)
      : Seq[(Long, Long, Long)] = {
    val r = Workloads.densePairs(n, dup, seed = 1)
    val s = Workloads.densePairs(n, dup, seed = 2)
    val (stream, _) = RadixJoinPlan.driver(
      Workloads.shard(r, nRanks), Workloads.shard(s, nRanks),
      Workloads.pairTypeNamed("rv"), Workloads.pairTypeNamed("sv"),
      JoinSpec(cfg(nRanks, compress)))
    val got = stream.drain().map(t =>
      (t(0).asInstanceOf[Long], t(1).asInstanceOf[Long], t(2).asInstanceOf[Long]))
    // verify against reference
    val exp = Workloads.referenceJoin(r.toSeq, s.toSeq)
    val gotCounts = got.groupBy(identity).view.mapValues(_.size).toMap
    assert(gotCounts == exp, s"join mismatch at n=$n ranks=$nRanks dup=$dup compress=$compress")
    got.toSeq
  }

  test("distributed join matches reference (1 rank, 1:1 keys)") {
    assert(runJoin(64, 1).size == 64)
  }

  test("distributed join matches reference (2 ranks)") {
    assert(runJoin(128, 2).size == 128)
  }

  test("distributed join matches reference (4 ranks)") {
    assert(runJoin(256, 4).size == 256)
  }

  test("distributed join matches reference (8 ranks, netFan == nRanks)") {
    assert(runJoin(512, 8).size == 512)
  }

  test("distributed join with duplicate keys multiplies output") {
    assert(runJoin(128, 2, dup = 2).size == 256)
  }

  test("distributed join with heavier duplication") {
    assert(runJoin(128, 4, dup = 4).size == 512)
  }

  test("distributed join without compression matches reference") {
    assert(runJoin(128, 2, compress = false).size == 128)
  }

  test("uncompressed join ships 16B tuples, compressed ships 8B") {
    def crossBytes(compress: Boolean): Long = {
      val n = 256
      val r = Workloads.densePairs(n, 1, seed = 1)
      val s = Workloads.densePairs(n, 1, seed = 2)
      val (stream, exec) = RadixJoinPlan.driver(
        Workloads.shard(r, 4), Workloads.shard(s, 4),
        Workloads.pairTypeNamed("rv"), Workloads.pairTypeNamed("sv"),
        JoinSpec(cfg(4, compress)))
      stream.drain()
      exec.report.bytesPut
    }
    val c = crossBytes(true)
    val u = crossBytes(false)
    assert(u == 2 * c, s"compression should halve wire bytes: compressed=$c uncompressed=$u")
  }

  test("compress = true sends sides that are not ⟨long,long⟩ uncompressed") {
    val nRanks = 2
    val rStr = (0 until 64).map(i => Array[Any](i.toLong, s"r$i")).toArray
    val sStr = (0 until 64).map(i => Array[Any](i * 2L, s"s$i")).toArray
    val rStrT = TupleType.of("k" -> Atom.LongA, "rs" -> Atom.StringA)
    val sStrT = TupleType.of("k" -> Atom.LongA, "ss" -> Atom.StringA)
    val longs = Workloads.densePairs(64, 1, seed = 8)
    def check(r: Array[Array[Any]], rT: TupleType, s: Array[Array[Any]], sT: TupleType): Unit = {
      val got = RadixJoinPlan.driver(Workloads.shard(r, nRanks), Workloads.shard(s, nRanks), rT, sT,
        JoinSpec(cfg(nRanks)))._1.drain().map(_.toSeq)
      val exp = for (a <- r.toSeq; b <- s.toSeq if a(0) == b(0)) yield a.toSeq ++ b.toSeq.tail
      assert(got.nonEmpty && got.sortBy(_.mkString(",")) == exp.sortBy(_.mkString(",")))
    }
    check(rStr, rStrT, sStr, sStrT)
    // One side compressed alone: its key is restored before the join.
    check(rStr, rStrT, longs, Workloads.pairTypeNamed("sv"))
    check(longs, Workloads.pairTypeNamed("rv"), sStr, sStrT)
  }

  test("per-rank phase timers cover the paper's Fig 6 phases") {
    val n = 256
    val r = Workloads.densePairs(n, 1, seed = 1)
    val s = Workloads.densePairs(n, 1, seed = 2)
    val (stream, exec) = RadixJoinPlan.driver(
      Workloads.shard(r, 2), Workloads.shard(s, 2),
      Workloads.pairTypeNamed("rv"), Workloads.pairTypeNamed("sv"),
      JoinSpec(cfg(2)))
    stream.drain()
    val phases = exec.report.timers.flatMap(_.phases).toSet
    assert(Set("localHistogram", "globalHistogram", "networkPartition",
      "localPartition", "buildProbe").subsetOf(phases))
  }

  test("semi join keeps exactly the matched probe tuples") {
    val nRanks = 2
    val r = Workloads.densePairs(64, 1, seed = 3) // keys 0..63
    val sRows = (0 until 32).map(i => Array[Any]((i * 4).toLong, i.toLong)).toArray
    val (stream, _) = RadixJoinPlan.driver(
      Workloads.shard(sRows, nRanks), // build side: keys 0,4,8,...
      Workloads.shard(r, nRanks),     // probe side: all keys
      Workloads.pairTypeNamed("bv"), Workloads.pairTypeNamed("pv"),
      JoinSpec(cfg(nRanks, compress = false), kind = JoinKind.Semi))
    val got = stream.drain().map(_(0).asInstanceOf[Long]).sorted
    assert(got == (0 until 16).map(_ * 4L).toSeq.sorted)
  }

  test("distributed Semi and Anti joins over compressed sides match a nested loop and leave the shards unchanged") {
    val nRanks = 2
    // Build keys 0, 3, ..., 87, the first ten twice; probe keys 0..127.
    val b = (0 until 40).map(i => Array[Any](((i % 30) * 3).toLong, i.toLong)).toArray
    val p = Workloads.densePairs(128, 1, seed = 9)
    val bShards = Workloads.shard(b, nRanks)
    val pShards = Workloads.shard(p, nRanks)
    def contents = (bShards ++ pShards).map(_.map(_.toSeq).toSeq)
    val before = contents
    for (kind <- Seq(JoinKind.Semi, JoinKind.Anti)) {
      val matched = (pt: Array[Any]) => b.exists(_(0) == pt(0))
      val exp = p.filter(pt => matched(pt) == (kind == JoinKind.Semi)).map(_.toSeq).toSeq.sortBy(_.mkString(","))
      for (run <- 1 to 2) {
        val (stream, _) = RadixJoinPlan.driver(bShards, pShards,
          Workloads.pairTypeNamed("bv"), Workloads.pairTypeNamed("pv"), JoinSpec(cfg(nRanks), kind = kind))
        assert(stream.drain().map(_.toSeq).toSeq.sortBy(_.mkString(",")) == exp, s"$kind run $run")
        assert(contents == before, s"$kind run $run")
      }
    }
  }

  test("pre-side hooks filter and project before the exchange") {
    val nRanks = 2
    val r = Workloads.densePairs(64, 1, seed = 4)
    val s = Workloads.densePairs(64, 1, seed = 5)
    val pre: SubOp => SubOp = up => new FilterOp(up, t => t(0).asInstanceOf[Long] < 10L)
    val (stream, _) = RadixJoinPlan.driver(
      Workloads.shard(r, nRanks), Workloads.shard(s, nRanks),
      Workloads.pairTypeNamed("rv"), Workloads.pairTypeNamed("sv"),
      JoinSpec(cfg(nRanks), preR = pre))
    assert(stream.drain().size == 10)
  }

  test("postJoin and levelAgg hooks produce distributed aggregates") {
    val nRanks = 2
    val r = Workloads.densePairs(64, 1, seed = 6)
    val s = Workloads.densePairs(64, 1, seed = 7)
    val post: SubOp => SubOp = up => new MapOp(up,
      t => Array[Any](t(0).asInstanceOf[Long] % 2, 1L),
      TupleType.of("g" -> Atom.LongA, "c" -> Atom.LongA))
    val agg: SubOp => SubOp = up => new ReduceByKey(up, "g", PlanPieces.sumLongValue)
    val (stream, _) = RadixJoinPlan.driver(
      Workloads.shard(r, nRanks), Workloads.shard(s, nRanks),
      Workloads.pairTypeNamed("rv"), Workloads.pairTypeNamed("sv"),
      JoinSpec(cfg(nRanks), postJoin = post, levelAgg = agg))
    val merged = new ReduceByKey(stream, "g", PlanPieces.sumLongValue)
    val out = merged.drain().map(t => (t(0), t(1))).toMap
    assert(out == Map(0L -> 32L, 1L -> 32L))
  }
}
