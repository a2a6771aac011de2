package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import scala.util.Random
import TestData._

class HistPartSpec extends AnyFunSuite {
  private def bucketOf(n: Int): Array[Any] => Int =
    t => (t(0).asInstanceOf[Long] % n).toInt

  test("LocalHistogram counts per bucket, including empty buckets") {
    val lh = new LocalHistogram(src(0L -> 0L, 1L -> 0L, 1L -> 0L, 3L -> 0L), 4, bucketOf(4))
    val rows = lh.drain()
    assert(rows.size == 4)
    assert(rows.map(r => (r(0), r(1))) == Seq((0, 1L), (1, 2L), (2, 0L), (3, 1L)))
  }

  test("LocalHistogram output type is ⟨bucket:int, count:long⟩") {
    val lh = new LocalHistogram(src(), 2, bucketOf(2))
    assert(lh.outType == TupleType.of("bucket" -> Atom.IntA, "count" -> Atom.LongA))
  }

  test("LocalHistogram rejects out-of-range buckets") {
    val lh = new LocalHistogram(src(9L -> 0L), 2, t => t(0).asInstanceOf[Long].toInt)
    intercept[IllegalArgumentException](lh.drain())
  }

  test("Histograms.toArray densifies operator output") {
    val lh = new LocalHistogram(src(0L -> 0L, 1L -> 0L, 1L -> 0L), 3, bucketOf(3))
    assert(Histograms.toArray(lh, 3).toSeq == Seq(1L, 2L, 0L))
  }

  test("LocalPartitioning scatters exactly per histogram") {
    val data = Seq(0L -> 0L, 1L -> 10L, 2L -> 20L, 4L -> 40L, 5L -> 50L)
    val lp = new LocalPartitioning(
      src(data: _*),
      new LocalHistogram(src(data: _*), 3, bucketOf(3)),
      3, bucketOf(3))
    val parts = lp.drain()
    assert(parts.size == 3)
    val byPid = parts.map(t => t(0).asInstanceOf[Int] ->
      asPairs(t(1).asInstanceOf[RowVec].toSeq)).toMap
    assert(byPid(0) == Seq(0L -> 0L))
    assert(byPid(1) == Seq(1L -> 10L, 4L -> 40L))
    assert(byPid(2) == Seq(2L -> 20L, 5L -> 50L))
  }

  test("LocalPartitioning emits empty partitions too") {
    val lp = new LocalPartitioning(
      src(0L -> 0L),
      new LocalHistogram(src(0L -> 0L), 4, bucketOf(4)),
      4, bucketOf(4))
    val parts = lp.drain()
    assert(parts.size == 4)
    assert(parts.count(_(1).asInstanceOf[RowVec].isEmpty) == 3)
  }

  test("LocalPartitioning detects histogram/data disagreement") {
    val lp = new LocalPartitioning(
      src(0L -> 0L, 1L -> 0L),
      new LocalHistogram(src(0L -> 0L), 2, bucketOf(2)), // histogram over less data
      2, bucketOf(2))
    intercept[Exception](lp.drain())
  }

  test("LocalPartitioning rejects a partition larger than an Int window before allocating") {
    val hist = new VectorSource(ArrayBuffer(Array[Any](0, 0L), Array[Any](1, 3000000000L)),
      TupleType.of("bucket" -> Atom.IntA, "count" -> Atom.LongA))
    val e = intercept[IllegalArgumentException](
      new LocalPartitioning(src(), hist, 2, bucketOf(2)).drain())
    assert(e.getMessage.contains("partition 1 needs 3000000000 rows"))
  }

  test("property: partitioning preserves multiset and respects bucket function") {
    val rnd = new Random(7)
    for (_ <- 1 to 50) {
      val n    = 1 + rnd.nextInt(16)
      val rows = List.fill(rnd.nextInt(200))(rnd.nextLong(1000L)).map(k => k -> k)
      val lp = new LocalPartitioning(
        src(rows: _*), new LocalHistogram(src(rows: _*), n, bucketOf(n)), n, bucketOf(n))
      val parts = lp.drain()
      val all = new ArrayBuffer[(Long, Long)]()
      parts.foreach { t =>
        val pid = t(0).asInstanceOf[Int]
        val vec = t(1).asInstanceOf[RowVec]
        vec.foreach { r =>
          assert((r(0).asInstanceOf[Long] % n).toInt == pid)
          all += ((r(0).asInstanceOf[Long], r(1).asInstanceOf[Long]))
        }
      }
      assert(all.sorted == rows.sorted)
    }
  }

  test("RowSlice is a zero-copy window view") {
    val arr = Array(Array[Any](1L), Array[Any](2L), Array[Any](3L), Array[Any](4L))
    val s = new RowSlice(arr, 1, 2)
    assert(s.length == 2)
    assert(s(0)(0) == 2L && s(1)(0) == 3L)
    intercept[IllegalArgumentException](new RowSlice(arr, 3, 5))
  }
}
