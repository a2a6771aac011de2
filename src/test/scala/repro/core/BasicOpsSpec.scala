package repro.core

import org.scalatest.funsuite.AnyFunSuite
import TestData._

import repro.mpi.{Phase, PhaseTimer}

class BasicOpsSpec extends AnyFunSuite {

  test("VectorSource emits all rows in order and supports re-open") {
    val s = src(1L -> 10L, 2L -> 20L)
    assert(asPairs(s.drain().toSeq) == Seq(1L -> 10L, 2L -> 20L))
    assert(asPairs(s.drain().toSeq) == Seq(1L -> 10L, 2L -> 20L))
  }

  test("IterSource re-creates its iterator per open") {
    val it = new IterSource(() => Iterator(Array[Any](1L, 1L), Array[Any](2L, 2L)), PairT)
    assert(it.drain().size == 2)
    assert(it.drain().size == 2)
  }

  test("MapOp transforms tuples and types") {
    val m = new MapOp(src(1L -> 10L, 2L -> 20L),
      t => Array[Any](t(0).asInstanceOf[Long] * 2),
      TupleType.of("k2" -> Atom.LongA))
    assert(m.outType.fieldNames == Vector("k2"))
    assert(m.drain().map(_(0)) == Seq(2L, 4L))
  }

  test("Projection keeps subset with correct values") {
    val p = new Projection(src(1L -> 10L, 2L -> 20L), Seq("v"))
    assert(p.outType.fieldNames == Vector("v"))
    assert(p.drain().map(_(0)) == Seq(10L, 20L))
  }

  test("Projection can reorder fields") {
    val p = new Projection(src(1L -> 10L), Seq("v", "k"))
    assert(p.drainOne().toSeq == Seq(10L, 1L))
  }

  test("Rename changes names, not values") {
    val r = new Rename(src(1L -> 10L), Seq("a", "b"))
    assert(r.outType.fieldNames == Vector("a", "b"))
    assert(asPairs(r.drain().toSeq) == Seq(1L -> 10L))
  }

  test("FilterOp keeps only satisfying tuples") {
    val f = new FilterOp(src(1L -> 10L, 2L -> 20L, 3L -> 30L),
      t => t(0).asInstanceOf[Long] % 2 == 1)
    assert(asPairs(f.drain().toSeq) == Seq(1L -> 10L, 3L -> 30L))
  }

  test("FilterOp on empty input emits nothing") {
    assert(new FilterOp(src(), _ => true).drain().isEmpty)
  }

  test("ParametrizedMap passes the single parameter tuple to every call") {
    val param = new VectorSource(Vector(Array[Any](100L)), TupleType.of("p" -> Atom.LongA))
    val pm = new ParametrizedMap(src(1L -> 10L, 2L -> 20L), param,
      (p, t) => Array[Any](t(0).asInstanceOf[Long] + p(0).asInstanceOf[Long], t(1)),
      PairT)
    assert(asPairs(pm.drain().toSeq) == Seq(101L -> 10L, 102L -> 20L))
  }

  test("Reduce folds to a single tuple") {
    val r = new Reduce(src(1L -> 10L, 2L -> 20L, 3L -> 30L),
      (a, b) => Array[Any](a(0).asInstanceOf[Long] + b(0).asInstanceOf[Long],
                           a(1).asInstanceOf[Long] + b(1).asInstanceOf[Long]))
    assert(asPairs(Seq(r.drainOne())) == Seq(6L -> 60L))
  }

  test("Reduce on empty input emits nothing") {
    assert(new Reduce(src(), (a, _) => a).drain().isEmpty)
  }

  test("ReduceByKey combines per key and re-attaches the key") {
    val rbk = new ReduceByKey(src(1L -> 10L, 2L -> 5L, 1L -> 32L), "k",
      (a, b) => Array[Any](a(0).asInstanceOf[Long] + b(0).asInstanceOf[Long]))
    val out = asPairs(rbk.drain().toSeq).toMap
    assert(out == Map(1L -> 42L, 2L -> 5L))
  }

  test("ReduceByKey output type equals input type") {
    val rbk = new ReduceByKey(src(1L -> 1L), "k", (a, _) => a)
    assert(rbk.outType == PairT)
  }

  test("ReduceByKey strips the key from combine inputs") {
    var seenArities = Set.empty[Int]
    val rbk = new ReduceByKey(src(1L -> 1L, 1L -> 2L), "k",
      (a, b) => { seenArities += a.length; seenArities += b.length; a })
    rbk.drain()
    assert(seenArities == Set(1))
  }

  test("Zip concatenates aligned upstreams") {
    val a = new Rename(src(1L -> 10L, 2L -> 20L), Seq("ak", "av"))
    val b = new Rename(src(5L -> 50L, 6L -> 60L), Seq("bk", "bv"))
    val z = new Zip(Seq(a, b))
    assert(z.outType.fieldNames == Vector("ak", "av", "bk", "bv"))
    val rows = z.drain()
    assert(rows.size == 2)
    assert(rows(0).toSeq == Seq(1L, 10L, 5L, 50L))
  }

  test("Zip throws on length mismatch (paper: runtime error)") {
    val a = new Rename(src(1L -> 1L, 2L -> 2L), Seq("ak", "av"))
    val b = new Rename(src(1L -> 1L), Seq("bk", "bv"))
    intercept[IllegalStateException](new Zip(Seq(a, b)).drain())
  }

  test("Zip rejects duplicate field names at construction") {
    intercept[IllegalArgumentException](new Zip(Seq(src(1L -> 1L), src(2L -> 2L))))
  }

  test("CartesianProduct produces all combinations") {
    val l = new Rename(src(1L -> 0L, 2L -> 0L), Seq("lk", "lv"))
    val r = new Rename(src(7L -> 0L, 8L -> 0L, 9L -> 0L), Seq("rk", "rv"))
    val cp = new CartesianProduct(l, r)
    val rows = cp.drain()
    assert(rows.size == 6)
    assert(cp.outType.fieldNames == Vector("lk", "lv", "rk", "rv"))
    assert(rows.map(t => (t(0), t(2))).toSet ==
      (for (a <- Seq(1L, 2L); b <- Seq(7L, 8L, 9L)) yield (a, b)).toSet)
  }

  test("CartesianProduct with single-tuple left side preserves cardinality") {
    val l = new VectorSource(Vector(Array[Any](42)), TupleType.of("npid" -> Atom.IntA))
    val r = src(1L -> 1L, 2L -> 2L)
    val rows = new CartesianProduct(l, r).drain()
    assert(rows.size == 2)
    assert(rows.forall(_(0) == 42))
  }

  test("ParameterLookup returns the slot tuple once per open") {
    val slot = new ParamSlot(PairT)
    slot.current = Array[Any](3L, 33L)
    val pl = new ParameterLookup(slot)
    assert(asPairs(pl.drain().toSeq) == Seq(3L -> 33L))
    slot.current = Array[Any](4L, 44L)
    assert(asPairs(pl.drain().toSeq) == Seq(4L -> 44L))
  }

  test("drainOne enforces the exactly-one contract") {
    intercept[IllegalArgumentException](src(1L -> 1L, 2L -> 2L).drainOne())
    intercept[IllegalArgumentException](src().drainOne())
  }

  test("Timed accumulates into the named phase and is transparent") {
    val timer = new PhaseTimer
    val t = new Timed(src(1L -> 1L, 2L -> 2L), timer, Phase.buildProbe)
    assert(asPairs(t.drain().toSeq) == Seq(1L -> 1L, 2L -> 2L))
    assert(timer.nanos(Phase.buildProbe) > 0)
  }

  test("Timed times exactly its upstream's open()") {
    val timer = new PhaseTimer
    val rows = src(1L -> 1L, 2L -> 2L)
    val slowOpen = new SubOp {
      override val outType: TupleType = rows.outType
      override def open(): Unit = { Thread.sleep(30); rows.open() }
      override def next(): Array[Any] = rows.next()
      override def close(): Unit = rows.close()
    }
    val t = new Timed(slowOpen, timer, Phase.localPartition)
    val t0 = System.nanoTime()
    t.open()
    val openNanos = System.nanoTime() - t0
    val charged = timer.nanos(Phase.localPartition)
    assert(charged >= 30_000_000L && charged <= openNanos)
    while (t.next() != null) Thread.sleep(20) // consumer work between next() calls
    t.close()
    assert(timer.nanos(Phase.localPartition) == charged)
  }
}
