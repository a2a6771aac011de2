package repro.core

/** LocalPartitioning (paper §3.3.4): scatters upstream tuples into `n`
  * partitions using exact sizes from a histogram upstream (the paper's
  * "prefix calculation inside a partition" — here each partition region is
  * allocated at its exact size up front, so the scatter pass is a single
  * cursor bump per tuple, the same exact-size discipline as the radix-join
  * local pass). Emits ⟨lpid, data⟩ pairs in partition order, including empty
  * partitions.
  */
final class LocalPartitioning(
    data: SubOp,
    hist: SubOp,
    n: Int,
    bucketOf: Array[Any] => Int,
) extends SubOp {
  override val outType: TupleType =
    TupleType.of("lpid" -> Atom.IntA, "data" -> CollectionType(data.outType))

  private var parts: Array[Array[Array[Any]]] = _
  private var i = 0

  override def open(): Unit = {
    val sizes = Histograms.toArray(hist, n)
    for (b <- 0 until n)
      require(sizes(b) <= Int.MaxValue,
        s"local partition $b needs ${sizes(b)} rows, more than an Int window holds")
    val p = Array.tabulate(n)(b => new Array[Array[Any]](sizes(b).toInt))
    val cursors = new Array[Int](n)
    data.open()
    var t = data.next()
    while (t != null) {
      val b = bucketOf(t)
      p(b)(cursors(b)) = t
      cursors(b) += 1
      t = data.next()
    }
    data.close()
    var b = 0
    while (b < n) {
      require(cursors(b) == p(b).length,
        s"histogram disagrees with data: partition $b got ${cursors(b)} of ${p(b).length}")
      b += 1
    }
    parts = p
    i = 0
  }

  override def next(): Array[Any] =
    if (i >= n) null
    else {
      val t = Array[Any](i, new RowSlice(parts(i), 0, parts(i).length): RowVec)
      i += 1
      t
    }

  override def close(): Unit = parts = null
}
