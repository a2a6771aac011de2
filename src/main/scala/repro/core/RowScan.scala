package repro.core

import scala.collection.mutable.ArrayBuffer

/** RowScan (paper §3.3.4): the basic input-reading operator — unnests a
  * RowVector collection field of the upstream tuples, emitting the contained
  * tuples one at a time (across all upstream tuples).
  */
final class RowScan(up: SubOp, field: String) extends SubOp {
  private val idx = up.outType.indexOf(field)
  override val outType: TupleType = up.outType.typeOf(field) match {
    case CollectionType(elem) => elem
    case other => throw new IllegalArgumentException(
      s"RowScan field '$field' is not a collection: ${other.render}")
  }

  private var cur: RowVec = _
  private var i = 0

  override def open(): Unit = { up.open(); cur = null; i = 0 }

  override def next(): Array[Any] = {
    while (true) {
      if (cur != null && i < cur.length) {
        val t = cur(i); i += 1
        return t
      }
      val ut = up.next()
      if (ut == null) return null
      cur = ut(idx).asInstanceOf[RowVec]
      i = 0
    }
    null // unreachable
  }

  override def close(): Unit = { up.close(); cur = null }

  /** Everything this scan emits, from one pass over its input: the input's
    * collection itself when the input yields exactly one, so an already
    * materialized collection is not copied.
    */
  override def drain(): RowVec = {
    up.open()
    val first = up.next()
    var out: RowVec = if (first == null) ArrayBuffer.empty else first(idx).asInstanceOf[RowVec]
    var t = if (first == null) null else up.next()
    if (t != null) {
      val buf = ArrayBuffer.from(out)
      while (t != null) { buf ++= t(idx).asInstanceOf[RowVec]; t = up.next() }
      out = buf
    }
    up.close()
    out
  }
}

/** MaterializeRowVector (paper §3.3.4): collects the upstream into a single
  * tuple holding one RowVector collection — the counterpart of RowScan and
  * the required final operator of every nested plan. Always emits exactly
  * one tuple (possibly with an empty collection).
  */
final class MaterializeRowVector(up: SubOp, field: String = "data") extends SubOp {
  override val outType: TupleType =
    TupleType.of(field -> CollectionType(up.outType))
  private var result: Array[Any] = _
  private var emitted = false

  override def open(): Unit = {
    val buf = up.drain()
    result = Array[Any](buf: RowVec)
    emitted = false
  }

  override def next(): Array[Any] =
    if (emitted) null else { emitted = true; result }

  override def close(): Unit = result = null
}

/** Materialization point for multi-consumer DAG edges (paper §3.2 pipeline
  * cutting): the wrapped operator runs once per invocation of `scope`; each
  * consumer obtains an independent replay scan over the buffered result.
  * The buffer is what `up.drain()` returns, so a [[RowScan]] of a collection
  * that is already materialized replays that collection as it is.
  *
  * Plans are constructed once but nested plans are re-opened per input
  * tuple of their scope, so the buffer belongs to one invocation: the first
  * consumer to open after `scope.epoch` changed re-runs `up`, and every
  * other open in the same invocation replays the buffer. A consumer may
  * skip an invocation or open more than once in it.
  */
final class Shared(up: SubOp, scope: ParamSlot) {
  private var buf: RowVec = _
  private var drainedAt = -1L

  def scan: SubOp = new SubOp {
    override val outType: TupleType = up.outType
    private var i = 0
    override def open(): Unit = {
      if (drainedAt != scope.epoch) { buf = up.drain(); drainedAt = scope.epoch }
      i = 0
    }
    override def next(): Array[Any] = {
      val b = buf
      if (i >= b.length) null else { val t = b(i); i += 1; t }
    }
    override def close(): Unit = ()
    override def drain(): RowVec = { open(); buf }
    override def render: String = s"SharedScan(${up.render})"
  }
}
