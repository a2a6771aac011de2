package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import scala.util.Random
import TestData._

class BuildProbeSpec extends AnyFunSuite {
  private val LT = TupleType.of("k" -> Atom.LongA, "lv" -> Atom.LongA)
  private val RT = TupleType.of("k" -> Atom.LongA, "rv" -> Atom.LongA)

  private def lsrc(kvs: (Long, Long)*): SubOp =
    new VectorSource(pairs(kvs: _*), LT)
  private def rsrc(kvs: (Long, Long)*): SubOp =
    new VectorSource(pairs(kvs: _*), RT)

  test("inner join output schema: attrs + build rest + probe rest") {
    val bp = new BuildProbe(lsrc(), rsrc(), Seq("k"))
    assert(bp.outType.fieldNames == Vector("k", "lv", "rv"))
  }

  test("inner join matches equal keys") {
    val bp = new BuildProbe(lsrc(1L -> 10L, 2L -> 20L), rsrc(2L -> 200L, 3L -> 300L), Seq("k"))
    val rows = bp.drain().map(_.toSeq)
    assert(rows == Seq(Seq(2L, 20L, 200L)))
  }

  test("inner join emits all combinations for duplicate keys") {
    val bp = new BuildProbe(
      lsrc(1L -> 10L, 1L -> 11L),
      rsrc(1L -> 100L, 1L -> 101L), Seq("k"))
    assert(bp.drain().size == 4)
  }

  test("inner join with empty build side is empty") {
    assert(new BuildProbe(lsrc(), rsrc(1L -> 1L), Seq("k")).drain().isEmpty)
  }

  test("inner join with empty probe side is empty") {
    assert(new BuildProbe(lsrc(1L -> 1L), rsrc(), Seq("k")).drain().isEmpty)
  }

  test("null keys never match (SQL semantics)") {
    val l = new VectorSource(ArrayBuffer(Array[Any](null, 1L)), LT)
    val r = new VectorSource(ArrayBuffer(Array[Any](null, 2L)), RT)
    assert(new BuildProbe(l, r, Seq("k")).drain().isEmpty)
  }

  test("semi join keeps probe tuples with at least one match, once") {
    val bp = new BuildProbe(
      lsrc(1L -> 10L, 1L -> 11L),
      rsrc(1L -> 100L, 2L -> 200L), Seq("k"), JoinKind.Semi)
    assert(bp.outType == RT)
    assert(bp.drain().map(_.toSeq) == Seq(Seq(1L, 100L)))
  }

  test("anti join keeps probe tuples without matches") {
    val bp = new BuildProbe(
      lsrc(1L -> 10L),
      rsrc(1L -> 100L, 2L -> 200L), Seq("k"), JoinKind.Anti)
    assert(bp.drain().map(_.toSeq) == Seq(Seq(2L, 200L)))
  }

  test("anti join keeps null-key probe tuples (null never matches)") {
    val r = new VectorSource(ArrayBuffer(Array[Any](null, 9L)), RT)
    val bp = new BuildProbe(lsrc(1L -> 1L), r, Seq("k"), JoinKind.Anti)
    assert(bp.drain().size == 1)
  }

  test("outer join pads unmatched probe tuples with nulls on the build side") {
    val bp = new BuildProbe(
      lsrc(1L -> 10L),
      rsrc(1L -> 100L, 2L -> 200L), Seq("k"), JoinKind.Outer)
    val rows = bp.drain().map(_.toSeq)
    assert(rows.contains(Seq(1L, 10L, 100L)))
    assert(rows.contains(Seq(2L, null, 200L)))
  }

  test("multi-attribute join keys") {
    val lt = TupleType.of("a" -> Atom.LongA, "b" -> Atom.LongA, "lv" -> Atom.LongA)
    val rt = TupleType.of("a" -> Atom.LongA, "b" -> Atom.LongA, "rv" -> Atom.LongA)
    val l = new VectorSource(ArrayBuffer(Array[Any](1L, 2L, 10L), Array[Any](1L, 3L, 11L)), lt)
    val r = new VectorSource(ArrayBuffer(Array[Any](1L, 2L, 99L)), rt)
    val bp = new BuildProbe(l, r, Seq("a", "b"))
    assert(bp.outType.fieldNames == Vector("a", "b", "lv", "rv"))
    assert(bp.drain().map(_.toSeq) == Seq(Seq(1L, 2L, 10L, 99L)))
  }

  test("string join keys work (Any equality)") {
    val lt = TupleType.of("k" -> Atom.StringA, "lv" -> Atom.LongA)
    val rt = TupleType.of("k" -> Atom.StringA, "rv" -> Atom.LongA)
    val l = new VectorSource(ArrayBuffer(Array[Any]("x", 1L)), lt)
    val r = new VectorSource(ArrayBuffer(Array[Any]("x", 2L), Array[Any]("y", 3L)), rt)
    assert(new BuildProbe(l, r, Seq("k")).drain().size == 1)
  }

  test("a build side that is a RowScan of one collection joins in place, also when re-opened") {
    val built = pairs(1L -> 10L, 2L -> 20L, 2L -> 21L)
    val outer = new VectorSource(Vector(Array[Any](built)), TupleType.of("data" -> CollectionType(LT)))
    val bp = new BuildProbe(new RowScan(outer, "data"), rsrc(2L -> 200L, 3L -> 300L), Seq("k"))
    val once = bp.drain().map(_.toSeq)
    assert(once == Seq(Seq(2L, 20L, 200L), Seq(2L, 21L, 200L)))
    assert(bp.drain().map(_.toSeq) == once)
    assert(asPairs(built.toSeq) == Seq(1L -> 10L, 2L -> 20L, 2L -> 21L))
  }

  test("property: inner join agrees with reference nested-loop join") {
    val rnd = new Random(11)
    for (_ <- 1 to 30) {
      val nl = rnd.nextInt(60)
      val nr = rnd.nextInt(60)
      val lRows = Seq.fill(nl)((rnd.nextLong(20L), rnd.nextLong(100L)))
      val rRows = Seq.fill(nr)((rnd.nextLong(20L), rnd.nextLong(100L)))
      val got = new BuildProbe(lsrc(lRows: _*), rsrc(rRows: _*), Seq("k"))
        .drain().map(t => (t(0), t(1), t(2)))
      val exp = for {
        (lk, lv) <- lRows
        (rk, rv) <- rRows
        if lk == rk
      } yield (lk, lv, rv)
      assert(got.groupBy(identity).view.mapValues(_.size).toMap ==
             exp.groupBy(identity).view.mapValues(_.size).toMap)
    }
  }

  test("property: semi ∪ anti = probe side") {
    val rnd = new Random(13)
    for (_ <- 1 to 20) {
      val lRows = Seq.fill(rnd.nextInt(40))((rnd.nextLong(10L), 0L))
      val rRows = Seq.fill(rnd.nextInt(40))((rnd.nextLong(10L), rnd.nextLong(5L)))
      val semi = new BuildProbe(lsrc(lRows: _*), rsrc(rRows: _*), Seq("k"), JoinKind.Semi)
        .drain().map(_.toSeq)
      val anti = new BuildProbe(lsrc(lRows: _*), rsrc(rRows: _*), Seq("k"), JoinKind.Anti)
        .drain().map(_.toSeq)
      assert((semi ++ anti).sortBy(_.toString) ==
        rRows.map(p => Seq[Any](p._1, p._2)).sortBy(_.toString))
    }
  }
}
