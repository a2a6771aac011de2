package repro.core

import scala.collection.mutable.ArrayBuffer

/** Volcano-style sub-operator interface (paper §3.2).
  *
  * A sub-operator is an iterator over tuples of a statically known
  * [[TupleType]]. `next()` returns `null` when exhausted (nullable return
  * instead of `Option` keeps the inner-loop allocation-free, mirroring the
  * paper's compiled pipelines). Operators may be re-opened: `open()` resets
  * the iterator — NestedMap relies on this to re-run nested plans per input
  * tuple.
  */
trait SubOp {
  /** Static output tuple type; computed at plan-construction time. */
  def outType: TupleType

  def open(): Unit

  /** The next tuple, or `null` when exhausted. */
  def next(): Array[Any]

  def close(): Unit

  /** The row half of the ownership contract: `true` when every row `next()`
    * returns is a new array that no one else holds, so a consumer may write
    * into it. Operators that pass rows through, or hand out rows a
    * collection holds, keep the default.
    */
  def freshRows: Boolean = false

  /** Run the operator to completion and collect all tuples. The result may
    * be a collection that this operator or its input already holds, and
    * other consumers may get the same collection back, so no caller
    * mutates it.
    */
  def drain(): RowVec = {
    open()
    val b = new ArrayBuffer[Array[Any]]()
    var t = next()
    while (t != null) { b += t; t = next() }
    close()
    b
  }

  /** Run to completion, requiring exactly one output tuple (the NestedMap
    * contract: "each invocation of the nested plan produces one output
    * tuple").
    */
  final def drainOne(): Array[Any] = {
    val b = drain()
    require(b.size == 1, s"expected exactly 1 tuple from $render, got ${b.size}")
    b(0)
  }

  def render: String = getClass.getSimpleName
}

/** The channel through which NestedMap / MpiExecutor pass the current input
  * tuple of an enclosing scope into a nested plan's ParameterLookup.
  * Every assignment of `current` starts a new invocation of the scope and
  * bumps `epoch`, which [[Shared]] uses to know when to re-materialize.
  */
final class ParamSlot(val tupleType: TupleType) {
  private var tuple: Array[Any] = _
  private var invocations = 0L
  def current: Array[Any] = tuple
  def current_=(t: Array[Any]): Unit = { tuple = t; invocations += 1 }
  def epoch: Long = invocations
}

/** Encapsulates plan inputs in the operator interface (paper §3.3.1): the
  * only operator aware of plan inputs. Emits the enclosing scope's current
  * tuple exactly once per open.
  */
final class ParameterLookup(slot: ParamSlot) extends SubOp {
  override val outType: TupleType = slot.tupleType
  private var done = false
  override def open(): Unit = done = false
  override def next(): Array[Any] =
    if (done) null
    else {
      done = true
      require(slot.current != null, "ParameterLookup opened with empty slot")
      slot.current
    }
  override def close(): Unit = ()
}

/** Base-table source: emits the rows of an in-memory RowVector. */
final class VectorSource(rows: RowVec, override val outType: TupleType)
    extends SubOp {
  private var i = 0
  override def open(): Unit = i = 0
  override def next(): Array[Any] =
    if (i >= rows.length) null
    else { val t = rows(i); i += 1; t }
  override def close(): Unit = ()
  override def drain(): RowVec = rows
}

/** Source over a re-creatable iterator (the Spark port feeds partition
  * iterators through this).
  */
final class IterSource(mk: () => Iterator[Array[Any]], override val outType: TupleType)
    extends SubOp {
  private var it: Iterator[Array[Any]] = _
  override def open(): Unit = it = mk()
  override def next(): Array[Any] = if (it.hasNext) it.next() else null
  override def close(): Unit = it = null
}

/** Zero-copy RowVector view over a slice of an RMA window's row array —
  * MpiExchange hands these out instead of copying received partitions.
  */
final class RowSlice(arr: Array[Array[Any]], from: Int, val length: Int)
    extends RowVec {
  require(from >= 0 && from + length <= arr.length, "RowSlice out of bounds")
  override def apply(i: Int): Array[Any] = arr(from + i)
}
