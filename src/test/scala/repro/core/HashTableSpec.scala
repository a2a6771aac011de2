package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.plans.PlanPieces
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Seeded properties of the bucket-chained tables inside BuildProbe and
  * ReduceByKey, against a nested-loop join and a linear fold that use the
  * same key equality (`==`, null never joins). Outputs are compared as
  * sequences, so the order guarantees are checked too: per probe row its
  * matches in build order, groups in first-occurrence order.
  */
class HashTableSpec extends AnyFunSuite {
  // Keys that stress the table: 1L and 2^32 share their `##`; 1 (Int) and
  // 1L are equal under `==` and so must match, as they did in a HashMap.
  private val Awkward: Vector[Any] = Vector(1L, 4294967296L, 1, -1L, Long.MinValue, null)

  private def key(rnd: Random, domain: Int, nullShare: Double): Any =
    if (rnd.nextDouble() < nullShare) null
    else if (rnd.nextInt(4) == 0) Awkward(rnd.nextInt(Awkward.size - 1))
    else rnd.nextInt(domain).toLong

  private def relation(rnd: Random, n: Int, keyCols: Int, domain: Int, nullShare: Double) =
    ArrayBuffer.tabulate(n)(i =>
      Array.tabulate[Any](keyCols)(_ => key(rnd, domain, nullShare)) :+ (i.toLong: Any))

  private def schema(keyCols: Int, rest: String): TupleType =
    TupleType((0 until keyCols).map(c => s"k$c" -> (Atom.LongA: ItemType)).toVector :+
      (rest -> (Atom.LongA: ItemType)))

  /** Nested-loop join with BuildProbe's output layout and order. */
  private def reference(b: Seq[Array[Any]], p: Seq[Array[Any]], keyCols: Int, kind: JoinKind): Seq[Seq[Any]] = {
    def keyOf(t: Array[Any]) = t.take(keyCols).toSeq
    def joins(bt: Array[Any], pt: Array[Any]) =
      !keyOf(pt).contains(null) && keyOf(bt).zip(keyOf(pt)).forall { case (x, y) => x == y }
    p.flatMap { pt =>
      val ms = b.filter(joins(_, pt))
      kind match {
        case JoinKind.Inner => ms.map(bt => keyOf(bt) ++ Seq(bt.last, pt.last))
        case JoinKind.Semi  => if (ms.nonEmpty) Seq(pt.toSeq) else Nil
        case JoinKind.Anti  => if (ms.isEmpty) Seq(pt.toSeq) else Nil
        case JoinKind.Outer =>
          if (ms.isEmpty) Seq(keyOf(pt) ++ Seq(null, pt.last))
          else ms.map(bt => keyOf(bt) ++ Seq(bt.last, pt.last))
      }
    }
  }

  private val Kinds = Seq(JoinKind.Inner, JoinKind.Semi, JoinKind.Anti, JoinKind.Outer)

  test("property: BuildProbe equals a nested-loop join for every JoinKind") {
    val rnd = new Random(51)
    for (trial <- 1 to 200) {
      val keyCols = 1 + trial % 2
      // Every fourth trial draws from 3 keys: long chains of duplicates.
      val domain = if (trial % 4 == 0) 3 else 1 + rnd.nextInt(40)
      val b = relation(rnd, rnd.nextInt(80), keyCols, domain, 0.05)
      val p = relation(rnd, rnd.nextInt(80), keyCols, domain, 0.05)
      for (kind <- Kinds) {
        val got = new BuildProbe(new VectorSource(b, schema(keyCols, "bv")),
          new VectorSource(p, schema(keyCols, "pv")), (0 until keyCols).map(c => s"k$c"), kind)
          .drain().map(_.toSeq)
        assert(got == reference(b.toSeq, p.toSeq, keyCols, kind), s"trial $trial, $kind")
      }
    }
  }

  test("BuildProbe: keys with equal ## match only when equal under ==") {
    val b = ArrayBuffer(Array[Any](1L, 10L), Array[Any](4294967296L, 20L), Array[Any](1, 30L))
    val p = ArrayBuffer(Array[Any](4294967296L, 1L), Array[Any](1L, 2L), Array[Any](null, 3L))
    val got = new BuildProbe(new VectorSource(b, schema(1, "bv")), new VectorSource(p, schema(1, "pv")),
      Seq("k0")).drain().map(_.toSeq)
    assert(got == Seq(Seq(4294967296L, 20L, 1L), Seq(1L, 10L, 2L), Seq(1, 30L, 2L)))
  }

  test("BuildProbe over an empty build or probe side") {
    val rows = ArrayBuffer(Array[Any](1L, 1L))
    for (kind <- Kinds; (b, p) <- Seq((ArrayBuffer.empty[Array[Any]], rows), (rows, ArrayBuffer.empty[Array[Any]]))) {
      val got = new BuildProbe(new VectorSource(b, schema(1, "bv")), new VectorSource(p, schema(1, "pv")),
        Seq("k0"), kind).drain().map(_.toSeq)
      assert(got == reference(b.toSeq, p.toSeq, 1, kind), s"$kind")
    }
  }

  /** Linear fold with ReduceByKey's contract: `op` over each key's values
    * (sums by default), groups in first-occurrence order.
    */
  private def fold(rows: Seq[Array[Any]], op: (Long, Long) => Long = _ + _): Seq[Seq[Any]] = {
    val groups = ArrayBuffer.empty[(Any, Long)]
    rows.foreach { t =>
      val g = groups.indexWhere(_._1 == t(0))
      if (g < 0) groups += (t(0) -> t(1).asInstanceOf[Long])
      else groups(g) = (t(0), op(groups(g)._2, t(1).asInstanceOf[Long]))
    }
    groups.map { case (k, s) => Seq(k, s) }.toSeq
  }

  test("property: ReduceByKey equals a fold in first-occurrence order") {
    val rnd = new Random(53)
    // 3 keys (long chains), then domains past the table's initial 64 groups.
    for (domain <- Seq(3, 40, 500, 2000); _ <- 1 to 5) {
      val rows = relation(rnd, rnd.nextInt(3 * domain), 1, domain, 0.02)
      val got = new ReduceByKey(new VectorSource(rows, schema(1, "v")), "k0",
        (a, b) => Array[Any](a(0).asInstanceOf[Long] + b(0).asInstanceOf[Long])).drain().map(_.toSeq)
      assert(got == fold(rows.toSeq), s"domain $domain")
    }
  }

  test("ReduceByKey: a combine that returns its second argument keeps the last value") {
    // The second argument is the operator's scratch array; a group that
    // takes it as its accumulator must not see the next tuple's values.
    val rnd = new Random(55)
    for (domain <- Seq(3, 40, 500)) {
      val rows = relation(rnd, 3 * domain, 1, domain, 0.02)
      val got = new ReduceByKey(new VectorSource(rows, schema(1, "v")), "k0", (_, b) => b)
        .drain().map(_.toSeq)
      assert(got == fold(rows.toSeq, (_, b) => b), s"domain $domain")
    }
  }

  test("ReduceByKey with the in-place sumLongValue leaves its source's rows unchanged") {
    val rnd = new Random(57)
    val rows = relation(rnd, 600, 1, 200, 0.02)
    val before = rows.map(_.toSeq)
    val got = new ReduceByKey(new VectorSource(rows, schema(1, "v")), "k0", PlanPieces.sumLongValue)
      .drain().map(_.toSeq)
    assert(got == fold(rows.toSeq))
    assert(rows.map(_.toSeq) == before)
  }

  test("ReduceByKey: equal-## keys stay apart, 1 and 1L group together, empty input is empty") {
    val rows = ArrayBuffer(Array[Any](4294967296L, 1L), Array[Any](1L, 2L), Array[Any](null, 4L),
      Array[Any](1, 8L), Array[Any](null, 16L))
    val rbk = new ReduceByKey(new VectorSource(rows, schema(1, "v")), "k0",
      (a, b) => Array[Any](a(0).asInstanceOf[Long] + b(0).asInstanceOf[Long]))
    assert(rbk.drain().map(_.toSeq) == Seq(Seq(4294967296L, 1L), Seq(1L, 10L), Seq(null, 20L)))
    assert(new ReduceByKey(new VectorSource(ArrayBuffer.empty, schema(1, "v")), "k0", (a, _) => a)
      .drain().isEmpty)
  }
}
