package repro.mpi

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer

import repro.core._
import repro.core.TestData._

class MpiOpsSpec extends AnyFunSuite {
  private def bucketOf(n: Int): Array[Any] => Int =
    t => (t(0).asInstanceOf[Long] % n).toInt

  test("MpiHistogram computes the global histogram on every rank") {
    val rt = new MpiRuntime(3)
    val results = rt.run { ctx =>
      // rank r contributes r+1 tuples to bucket 0 and one tuple to bucket 1
      val rows = (0 to ctx.rank).map(_ => 0L -> 0L) :+ (1L -> 0L)
      val lh = new LocalHistogram(src(rows: _*), 2, bucketOf(2))
      Histograms.toArray(new MpiHistogram(lh, 2, ctx), 2).toSeq
    }
    results.foreach(v => assert(v == Seq(6L, 3L)))
  }

  test("MpiExchange routes every tuple to its partition's owner rank") {
    val n = 2
    val nPart = 4
    val rt = new MpiRuntime(n)
    val results = rt.run { ctx =>
      // every rank holds keys 0..7 with value = rank
      val rows = (0L until 8L).map(k => k -> ctx.rank.toLong)
      def keyed = src(rows: _*)
      val lh = new Shared(new LocalHistogram(keyed, nPart, bucketOf(nPart)), new ParamSlot(PairT))
      val gh = new MpiHistogram(lh.scan, nPart, ctx)
      val ex = new MpiExchange(keyed, lh.scan, gh, nPart, bucketOf(nPart), ctx)
      ex.drain().map { t =>
        val pid = t(0).asInstanceOf[Int]
        val data = t(1).asInstanceOf[RowVec]
        (pid, data.map(r => (r(0).asInstanceOf[Long], r(1).asInstanceOf[Long])).sorted.toSeq)
      }.toSeq
    }
    // partitions 0,2 on rank 0; 1,3 on rank 1; each partition holds its two
    // keys from both ranks
    val all = results.flatten.toMap
    assert(all.keySet == Set(0, 1, 2, 3))
    assert(all(0) == Seq((0L, 0L), (0L, 1L), (4L, 0L), (4L, 1L)))
    assert(all(3) == Seq((3L, 0L), (3L, 1L), (7L, 0L), (7L, 1L)))
    assert(results(0).map(_._1) == Seq(0, 2))
    assert(results(1).map(_._1) == Seq(1, 3))
  }

  test("MpiExchange preserves global tuple count across ranks") {
    val n = 4
    val nPart = 8
    val rt = new MpiRuntime(n)
    val counts = rt.run { ctx =>
      val rows = (0L until 100L).map(k => (k * 31 % 64) -> k)
      def keyed = src(rows: _*)
      val lh = new Shared(new LocalHistogram(keyed, nPart, bucketOf(nPart)), new ParamSlot(PairT))
      val gh = new MpiHistogram(lh.scan, nPart, ctx)
      val ex = new MpiExchange(keyed, lh.scan, gh, nPart, bucketOf(nPart), ctx)
      ex.drain().map(_(1).asInstanceOf[RowVec].size).sum
    }
    assert(counts.sum == 400)
  }

  test("MpiExchange rejects a window larger than an Int on every rank, before allocating") {
    val histT = TupleType.of("bucket" -> Atom.IntA, "count" -> Atom.LongA)
    def hist(counts: Long*) = new VectorSource(
      ArrayBuffer.tabulate(counts.size)(p => Array[Any](p, counts(p))), histT)
    val rt = new MpiRuntime(2)
    val e = intercept[IllegalArgumentException](rt.run { ctx =>
      // Partitions 1 and 3 (owned by rank 1) hold 1.5 * 10^9 rows each.
      new MpiExchange(src(), hist(0, 0, 0, 0), hist(0, 1500000000L, 0, 1500000000L),
        4, bucketOf(4), ctx).drain()
    })
    assert(e.getMessage.contains("window of rank 1 needs 3000000000 rows"))
  }

  test("MpiExchange with radix compression packs and byte-accounts 8B tuples") {
    val n = 2
    val netBits = 1
    val rt = new MpiRuntime(n, NetConfig(ranksPerMachine = 1,
      crossBytesPerSec = Long.MaxValue, msgLatencyNanos = 0))
    val results = rt.run { ctx =>
      val sent = pairs((0L until 16L).map(k => k -> (k * 10)): _*)
      def keyed = new VectorSource(sent, PairT)
      val part: Array[Any] => Int = t => (t(0).asInstanceOf[Long] & 1L).toInt
      val lh = new Shared(new LocalHistogram(keyed, 2, part), new ParamSlot(PairT))
      val gh = new MpiHistogram(lh.scan, 2, ctx)
      val ex = new MpiExchange(keyed, lh.scan, gh, 2, part, ctx, compress = true)
      val out = ex.drain()
      assert(ex.outType.typeOf("data") ==
        CollectionType(TupleType.of("khi" -> Atom.LongA, "v" -> Atom.LongA)))
      val received = out.flatMap { t =>
        val pid = t(0).asInstanceOf[Int]
        t(1).asInstanceOf[RowVec].map(pid -> _)
      }.toSeq
      (sent.toSeq, received)
    }
    val received = results.flatMap(_._2)
    val restored = received.map { case (pid, r) =>
      assert(r.length == 2)
      MpiExchange.restoreKey(r(0).asInstanceOf[Long], pid, netBits) -> r(1).asInstanceOf[Long]
    }.sorted
    assert(restored == (0L until 16L).map(k => k -> (k * 10)).sorted.toList.flatMap(x => List(x, x)))
    // The data crossed as words: every received row is a fresh object,
    // none of them a tuple either sender emitted.
    val sentRows = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[AnyRef, java.lang.Boolean])
    results.foreach(_._1.foreach(sentRows.add))
    assert(sentRows.size == 2 * 16)
    assert(received.forall { case (_, r) => !sentRows.contains(r) })
    // byte accounting: 2 ranks × 16 tuples × 8 B compressed, half cross-machine
    val stats = rt.contexts.map(_.stats)
    assert(stats.map(s => s.bytesCross + s.bytesLocal).sum == 2 * 16 * 8)
  }

  test("MpiExchange ownerShift rotates partition placement consistently") {
    val n = 2
    val rt = new MpiRuntime(n)
    val results = rt.run { ctx =>
      val rows = (0L until 8L).map(k => k -> 0L)
      def keyed = src(rows: _*)
      val lh = new Shared(new LocalHistogram(keyed, 2, bucketOf(2)), new ParamSlot(PairT))
      val gh = new MpiHistogram(lh.scan, 2, ctx)
      val ex = new MpiExchange(keyed, lh.scan, gh, 2, bucketOf(2), ctx, ownerShift = 1)
      ex.drain().map(_(0).asInstanceOf[Int]).toSeq
    }
    assert(results(0) == Seq(1)) // partition 1 now owned by rank 0
    assert(results(1) == Seq(0))
  }

  test("MpiExecutor runs the nested plan once per rank and collects in order") {
    val inT = TupleType.of("x" -> Atom.LongA)
    val srcRows = new VectorSource(
      ArrayBuffer(Array[Any](10L), Array[Any](20L), Array[Any](30L)), inT)
    val exec = new MpiExecutor(srcRows, 3, NetConfig(), (slot, ctx) => {
      val pl = new ParameterLookup(slot)
      new MapOp(pl, t => Array[Any](t(0).asInstanceOf[Long] + ctx.rank),
        TupleType.of("y" -> Atom.LongA))
    })
    assert(exec.outType.fieldNames == Vector("y"))
    assert(exec.drain().map(_(0)) == Seq(10L, 21L, 32L))
  }

  test("MpiExecutor supports collectives inside nested plans") {
    val inT = TupleType.of("x" -> Atom.LongA)
    val srcRows = new VectorSource(
      ArrayBuffer(Array[Any](1L), Array[Any](2L)), inT)
    val exec = new MpiExecutor(srcRows, 2, NetConfig(), (slot, ctx) => {
      val pl = new ParameterLookup(slot)
      new MapOp(pl, t => {
        val sum = ctx.allReduceSum(Array(t(0).asInstanceOf[Long]))(0)
        Array[Any](sum)
      }, TupleType.of("sum" -> Atom.LongA))
    })
    assert(exec.drain().map(_(0)) == Seq(3L, 3L))
  }

  test("MpiExecutor reports what its ranks measured") {
    val inT = TupleType.of("x" -> Atom.LongA)
    val srcRows = new VectorSource(ArrayBuffer(Array[Any](1L), Array[Any](2L)), inT)
    val exec = new MpiExecutor(srcRows, 2, NetConfig(), (slot, ctx) =>
      new MapOp(new ParameterLookup(slot), t => {
        val win = ctx.winCreate[Array[Any]](1)
        ctx.timer.time(Phase.networkPartition) {
          ctx.put(win, 1 - ctx.rank, 0, Array(t), 1, 16)
          ctx.fence(win)
        }
        win.local(ctx.rank)(0)
      }, inT))
    assert(exec.drain().map(_(0)) == Seq(2L, 1L))
    val report = exec.report
    assert(report.timers.size == 2 && report.stats.size == 2)
    assert(report.bytesPut == 2 * 16)
    assert(report.stats.forall(_.msgs == 1))
    assert(report.slowestNanos(Phase.networkPartition) > 0)
  }

  test("MpiExecutor builds each rank's plan once, against that rank's context") {
    val inT = TupleType.of("x" -> Atom.LongA)
    val srcRows = new VectorSource(ArrayBuffer(Array[Any](1L), Array[Any](2L), Array[Any](3L)), inT)
    val built = ArrayBuffer.empty[(Int, Int)]
    val exec = new MpiExecutor(srcRows, 3, NetConfig(), (slot, ctx) => {
      built.synchronized(built += ctx.rank -> ctx.nRanks)
      new ParameterLookup(slot)
    })
    assert(exec.drain().map(_(0)) == Seq(1L, 2L, 3L))
    assert(exec.drain().map(_(0)) == Seq(1L, 2L, 3L)) // a re-open reruns the same plans
    assert(built.sorted == Seq(0 -> 3, 1 -> 3, 2 -> 3))
  }

  test("MpiExecutor fails loudly unless it gets one input tuple per rank") {
    val inT = TupleType.of("x" -> Atom.LongA)
    val srcRows = new VectorSource(ArrayBuffer(Array[Any](1L), Array[Any](2L)), inT)
    val exec = new MpiExecutor(srcRows, 3, NetConfig(), (slot, _) => new ParameterLookup(slot))
    val e = intercept[IllegalArgumentException](exec.open())
    assert(e.getMessage.contains("3 ranks") && e.getMessage.contains("got 2"))
  }
}
