package repro.core

/** Zip (paper §3.3.2): consumes one tuple from each upstream per output tuple
  * and concatenates their fields (which must have distinct names). Throws a
  * runtime error if the upstreams return different numbers of tuples.
  */
final class Zip(ups: Seq[SubOp]) extends SubOp {
  require(ups.nonEmpty, "Zip needs at least one upstream")
  override val outType: TupleType = ups.map(_.outType).reduce(_ ++ _)
  private val arity = outType.arity
  private val upArr = ups.toArray
  private val parts = new Array[Array[Any]](upArr.length)

  override def open(): Unit = upArr.foreach(_.open())

  override def next(): Array[Any] = {
    var nulls = 0
    var u = 0
    while (u < upArr.length) {
      parts(u) = upArr(u).next()
      if (parts(u) == null) nulls += 1
      u += 1
    }
    if (nulls == upArr.length) return null
    if (nulls != 0)
      throw new IllegalStateException(
        s"Zip upstreams returned different numbers of tuples (${outType.render})")
    val out = new Array[Any](arity)
    var o = 0
    u = 0
    while (u < parts.length) {
      System.arraycopy(parts(u), 0, out, o, parts(u).length)
      o += parts(u).length
      u += 1
    }
    out
  }

  override def close(): Unit = upArr.foreach(_.close())
}

/** CartesianProduct (paper §3.3.2): all combinations of left and right tuples
  * (distinct field names). The right side is materialized once at open; in
  * the paper's plans the left side is usually a single tuple (it augments
  * partitions with their networkPartitionID), so this stays cheap.
  */
final class CartesianProduct(l: SubOp, r: SubOp) extends SubOp {
  override val outType: TupleType = l.outType ++ r.outType
  private var rBuf: RowVec = _
  private var lCur: Array[Any] = _
  private var rIdx = 0

  override def open(): Unit = {
    rBuf = r.drain()
    l.open()
    lCur = null
    rIdx = 0
  }

  override def next(): Array[Any] = {
    while (true) {
      if (lCur == null) {
        lCur = l.next()
        if (lCur == null) return null
        rIdx = 0
      }
      if (rIdx < rBuf.length) {
        val rt  = rBuf(rIdx); rIdx += 1
        val out = new Array[Any](lCur.length + rt.length)
        System.arraycopy(lCur, 0, out, 0, lCur.length)
        System.arraycopy(rt, 0, out, lCur.length, rt.length)
        return out
      }
      lCur = null
    }
    null // unreachable
  }

  override def close(): Unit = { l.close(); rBuf = null }
}
