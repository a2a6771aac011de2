package repro.core

import repro.mpi.{Phase, PhaseTimer}

/** Map (paper §3.3.2): applies `f` to each upstream tuple. The static output
  * type of `f` is supplied at construction (the paper derives it from the
  * UDF's Numba signature; we state it explicitly).
  */
final class MapOp(up: SubOp, f: Array[Any] => Array[Any], override val outType: TupleType)
    extends SubOp {
  override def open(): Unit = up.open()
  override def next(): Array[Any] = {
    val t = up.next()
    if (t == null) null else f(t)
  }
  override def close(): Unit = up.close()
}

/** ParametrizedMap (paper §3.3.2): like Map, but consumes a single tuple from
  * a dedicated parameter upstream at open time and passes it to every call —
  * used e.g. to recover radix-compression bits from the networkPartitionID.
  */
final class ParametrizedMap(
    up: SubOp,
    paramUp: SubOp,
    f: (Array[Any], Array[Any]) => Array[Any], // (param, tuple) => tuple
    override val outType: TupleType,
) extends SubOp {
  private var param: Array[Any] = _
  override def open(): Unit = {
    param = paramUp.drainOne()
    up.open()
  }
  override def next(): Array[Any] = {
    val t = up.next()
    if (t == null) null else f(param, t)
  }
  override def close(): Unit = up.close()
}

/** Projection (paper §3.3.2): keeps a subset of fields unmodified. A special
  * case of Map kept as its own operator for plan readability, as in the paper.
  */
final class Projection(up: SubOp, names: Seq[String]) extends SubOp {
  override val outType: TupleType = up.outType.project(names)
  private val idx = names.map(up.outType.indexOf).toArray
  override def open(): Unit = up.open()
  override def next(): Array[Any] = {
    val t = up.next()
    if (t == null) return null
    val out = new Array[Any](idx.length)
    var i = 0
    while (i < idx.length) { out(i) = t(idx(i)); i += 1 }
    out
  }
  override def close(): Unit = up.close()
}

/** Positional field rename — a zero-cost Map that only changes the static
  * type (needed before Zip/CartesianProduct, whose inputs must have distinct
  * field names).
  */
final class Rename(up: SubOp, newNames: Seq[String]) extends SubOp {
  override val outType: TupleType = up.outType.renamed(newNames)
  override def open(): Unit = up.open()
  override def next(): Array[Any] = up.next()
  override def close(): Unit = up.close()
}

/** Filter (paper §3.3.2): relational selection; tuples pass unmodified. */
final class FilterOp(up: SubOp, pred: Array[Any] => Boolean) extends SubOp {
  override val outType: TupleType = up.outType
  override def open(): Unit = up.open()
  override def next(): Array[Any] = {
    var t = up.next()
    while (t != null && !pred(t)) t = up.next()
    t
  }
  override def close(): Unit = up.close()
}

/** Charges its upstream's `open()` to a phase of the rank's timer; `next`
  * and `close` just forward. Every phase is the `open()` of an operator
  * that does all its work there, so the clock is read twice per open,
  * never per tuple. The benches read these for the paper's Fig 6 phase
  * breakdown.
  */
final class Timed(up: SubOp, timer: PhaseTimer, phase: Phase.Value) extends SubOp {
  override val outType: TupleType = up.outType
  override def open(): Unit = timer.time(phase)(up.open())
  override def next(): Array[Any] = up.next()
  override def close(): Unit = up.close()
}
