package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import TestData._

class NestedAndSharedSpec extends AnyFunSuite {

  test("RowScan unnests a collection field") {
    val inner: RowVec = pairs(1L -> 10L, 2L -> 20L)
    val outerRows = ArrayBuffer(Array[Any](7, inner))
    val outer = new VectorSource(
      outerRows,
      TupleType.of("npid" -> Atom.IntA, "data" -> CollectionType(PairT)))
    val rs = new RowScan(outer, "data")
    assert(rs.outType == PairT)
    assert(asPairs(rs.drain().toSeq) == Seq(1L -> 10L, 2L -> 20L))
    // Collections that already exist are handed on, not copied.
    assert(outer.drain() eq outerRows)
    assert(new MaterializeRowVector(rs, "data").drainOne()(0).asInstanceOf[AnyRef] eq inner)
  }

  test("RowScan flattens across multiple upstream tuples, including empties") {
    val t = TupleType.of("data" -> CollectionType(PairT))
    val outer = new VectorSource(
      ArrayBuffer(
        Array[Any](pairs(1L -> 1L)),
        Array[Any](pairs()),
        Array[Any](pairs(2L -> 2L, 3L -> 3L))),
      t)
    assert(asPairs(new RowScan(outer, "data").drain().toSeq) ==
      Seq(1L -> 1L, 2L -> 2L, 3L -> 3L))
  }

  test("RowScan rejects non-collection fields at construction") {
    intercept[IllegalArgumentException](new RowScan(src(1L -> 1L), "k"))
  }

  test("MaterializeRowVector collects into one tuple") {
    val m = new MaterializeRowVector(src(1L -> 10L, 2L -> 20L), "data")
    val t = m.drainOne()
    assert(m.outType.fieldNames == Vector("data"))
    assert(asPairs(t(0).asInstanceOf[RowVec].toSeq) == Seq(1L -> 10L, 2L -> 20L))
  }

  test("MaterializeRowVector emits one tuple even on empty input") {
    val t = new MaterializeRowVector(src(), "data").drainOne()
    assert(t(0).asInstanceOf[RowVec].isEmpty)
  }

  test("RowScan(MaterializeRowVector(x)) is identity on the stream") {
    val round = new RowScan(new MaterializeRowVector(src(1L -> 1L, 2L -> 2L), "d"), "d")
    assert(asPairs(round.drain().toSeq) == Seq(1L -> 1L, 2L -> 2L))
  }

  test("NestedMap runs the nested plan once per input tuple") {
    val nm = new NestedMap(src(1L -> 10L, 2L -> 20L), slot => {
      val pl = new ParameterLookup(slot)
      new MapOp(pl, t => Array[Any](t(0).asInstanceOf[Long] * 100), TupleType.of("x" -> Atom.LongA))
    })
    assert(nm.drain().map(_(0)) == Seq(100L, 200L))
  }

  test("NestedMap enforces exactly-one-output nested plans") {
    val nm = new NestedMap(src(1L -> 10L), slot => {
      // nested plan emitting two tuples: PL feeding a cartesian with itself
      val pl1 = new Rename(new ParameterLookup(slot), Seq("a", "b"))
      val two = new VectorSource(pairs(1L -> 1L, 2L -> 2L), PairT)
      new CartesianProduct(pl1, two)
    })
    intercept[IllegalArgumentException](nm.drain())
  }

  test("NestedMap with nested collections (the Fig 3 motif)") {
    // outer tuples carry partitions; nested plan sums each partition
    val outerT = TupleType.of("data" -> CollectionType(PairT))
    val outer = new VectorSource(
      ArrayBuffer(Array[Any](pairs(1L -> 1L, 2L -> 2L)), Array[Any](pairs(10L -> 10L))),
      outerT)
    val nm = new NestedMap(outer, slot => {
      val scan = new RowScan(new ParameterLookup(slot), "data")
      new Reduce(scan, (a, b) =>
        Array[Any](a(0).asInstanceOf[Long] + b(0).asInstanceOf[Long],
                   a(1).asInstanceOf[Long] + b(1).asInstanceOf[Long]))
    })
    assert(asPairs(nm.drain().toSeq) == Seq(3L -> 3L, 10L -> 10L))
  }

  test("a ReduceByKey re-opened by a NestedMap returns only the current invocation's groups") {
    // 500 groups grow the table; the second invocation's 3 keys reuse it.
    val outerT = TupleType.of("data" -> CollectionType(PairT))
    val big = pairs((0 until 1000).map(i => (i % 500).toLong -> 1L): _*)
    val small = pairs(0L -> 5L, 1L -> 6L, 0L -> 7L, 2L -> 8L)
    val outer = new VectorSource(ArrayBuffer(Array[Any](big), Array[Any](small)), outerT)
    val nm = new NestedMap(outer, slot => new MaterializeRowVector(
      new ReduceByKey(new RowScan(new ParameterLookup(slot), "data"), "k",
        (a, b) => { a(0) = a(0).asInstanceOf[Long] + b(0).asInstanceOf[Long]; a }),
      "groups"))
    val Seq(first, second) = nm.drain().map(t => asPairs(t(0).asInstanceOf[RowVec].toSeq)).toSeq
    assert(first == (0 until 500).map(_.toLong -> 2L))
    assert(second == Seq(0L -> 12L, 1L -> 6L, 2L -> 8L))
  }

  test("Shared materializes once per invocation and replays to all consumers") {
    var opens = 0
    val counted = new SubOp {
      override val outType: TupleType = PairT
      private var i = 0
      override def open(): Unit = { opens += 1; i = 0 }
      override def next(): Array[Any] =
        if (i >= 2) null else { i += 1; Array[Any](i.toLong, opens.toLong) }
      override def close(): Unit = ()
    }
    val slot = new ParamSlot(PairT)
    val sh = new Shared(counted, slot)
    val s1 = sh.scan
    val s2 = sh.scan
    slot.current = Array[Any](1L, 1L)
    val first = s1.drain()
    assert(asPairs(first.toSeq) == Seq(1L -> 1L, 2L -> 1L))
    assert(s2.drain() eq first)
    assert(opens == 1) // one invocation: both consumers, one materialization
    // second invocation: both consumers re-open → exactly one more run
    slot.current = Array[Any](2L, 2L)
    val second = s1.drain()
    assert(asPairs(second.toSeq) == Seq(1L -> 2L, 2L -> 2L))
    assert(s2.drain() eq second)
    assert(opens == 2)
  }

  test("Shared over a RowScan replays its input's one collection in place, and concatenates several") {
    val slotT = TupleType.of("data" -> CollectionType(PairT))
    var opens = 0
    var reads = 0
    val counted: RowVec = new RowVec {
      override def length: Int = 2
      override def apply(i: Int): Array[Any] = { reads += 1; Array[Any](i.toLong, 0L) }
    }
    def shared(colls: RowVec*) = {
      val input = new SubOp {
        override val outType: TupleType = slotT
        private var i = 0
        override def open(): Unit = { opens += 1; i = 0 }
        override def next(): Array[Any] =
          if (i >= colls.size) null else { i += 1; Array[Any](colls(i - 1)) }
        override def close(): Unit = ()
      }
      val slot = new ParamSlot(PairT)
      slot.current = Array[Any](0L, 0L)
      new Shared(new RowScan(input, "data"), slot)
    }
    // One collection: both consumers read it directly, nothing is copied.
    val one = shared(counted)
    assert(asPairs(one.scan.drain().toSeq) == Seq(0L -> 0L, 1L -> 0L))
    assert(asPairs(one.scan.drain().toSeq) == Seq(0L -> 0L, 1L -> 0L))
    assert(opens == 1 && reads == 4)
    // Several: one pass over the input, its collections in order.
    val many = shared(pairs(1L -> 1L), pairs(), pairs(2L -> 2L, 3L -> 3L))
    assert(asPairs(many.scan.drain().toSeq) == Seq(1L -> 1L, 2L -> 2L, 3L -> 3L))
    assert(asPairs(many.scan.drain().toSeq) == Seq(1L -> 1L, 2L -> 2L, 3L -> 3L))
    assert(opens == 2)
    assert(shared().scan.drain().isEmpty)
  }

  test("Shared inside a NestedMap recomputes per nested invocation") {
    val outerT = TupleType.of("data" -> CollectionType(PairT))
    val outer = new VectorSource(
      ArrayBuffer(Array[Any](pairs(1L -> 1L)), Array[Any](pairs(5L -> 5L))),
      outerT)
    val nm = new NestedMap(outer, slot => {
      val sh = new Shared(new RowScan(new ParameterLookup(slot), "data"), slot)
      val a = new Rename(sh.scan, Seq("ak", "av"))
      val b = new Rename(sh.scan, Seq("bk", "bv"))
      new Zip(Seq(a, b))
    })
    val rows = nm.drain()
    assert(rows.map(_.toSeq) == Seq(Seq(1L, 1L, 1L, 1L), Seq(5L, 5L, 5L, 5L)))
  }

  test("a consumer that skips one invocation still reads the next invocation's rows") {
    val slotT = TupleType.of("data" -> CollectionType(PairT))
    val slot = new ParamSlot(slotT)
    val sh = new Shared(new RowScan(new ParameterLookup(slot), "data"), slot)
    val s1 = sh.scan
    val s2 = sh.scan
    slot.current = Array[Any](pairs(1L -> 1L))
    assert(asPairs(s1.drain().toSeq) == Seq(1L -> 1L)) // s2 skips this invocation
    slot.current = Array[Any](pairs(5L -> 5L))
    assert(asPairs(s2.drain().toSeq) == Seq(5L -> 5L))
    assert(asPairs(s1.drain().toSeq) == Seq(5L -> 5L))
  }
}
