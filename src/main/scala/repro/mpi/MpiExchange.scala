package repro.mpi

import repro.core._

/** MpiExchange (paper §3.3.3, §4.1): histogram-driven, synchronization-free
  * network partitioning.
  *
  * Protocol (identical to the monolithic join of Barthels et al.):
  *  1. consume the local and global histograms from the two dedicated
  *     upstreams; allgather the local ones so every rank knows its exclusive
  *     write offset into each partition region;
  *  2. create one RMA window sized to hold exactly the partitions this rank
  *     owns (`owner(p) = p mod nRanks`);
  *  3. re-read the main upstream, route each tuple to its `radix`
  *     partition, buffer it in a per-partition write-combining batch, and
  *     flush full batches with one-sided puts;
  *  4. fence, then emit ⟨npid, partitionData⟩ pairs over zero-copy slices of
  *     the local window region.
  *
  * With `compress`, the input must be `compressible` (⟨long,long⟩ tuples)
  * and `radix` must take the key's low F = `radix.bits` bits (shift 0),
  * since those are the bits the word drops. Each tuple is packed at write
  * time into one 64-bit word (see the companion), the window holds
  * primitive longs, and after the fence each received word is unpacked
  * once, in window order, into a fresh ⟨khi, value⟩ row: the elements are
  * ⟨khi, <the input's field 1>⟩, the key still missing its low F bits
  * (recovered downstream from the npid).
  */
final class MpiExchange(
    data: SubOp,
    localHist: SubOp,
    globalHist: SubOp,
    radix: Radix,
    ctx: MpiContext,
    compress: Boolean = false,
    ownerShift: Int = 0,
) extends SubOp {
  import MpiExchange._

  if (compress) {
    require(radix.shift == 0, s"radix compression drops the key's low bits: needs shift 0, got ${radix.shift}")
    require(compressible(data.outType), s"radix compression needs ⟨long,long⟩ tuples: ${data.outType.render}")
  }
  private val elemT: TupleType =
    if (compress) TupleType.of("khi" -> Atom.LongA, data.outType.fieldNames(1) -> Atom.LongA)
    else data.outType
  private val bytesPerTuple: Int = if (compress) WordBytes else Bytes.perTuple(elemT)

  override val outType: TupleType =
    TupleType.of("npid" -> Atom.IntA, "data" -> CollectionType(elemT))

  // ownerShift rotates the partition→rank placement; a fresh exchange epoch
  // in an unoptimized plan has no reason to land partitions on the ranks of
  // a previous epoch (the naive join-sequence plan of Fig 4 re-shuffles its
  // intermediate result through the network for exactly this reason).
  private def ownerOf(p: Int): Int = (p + ownerShift) % ctx.nRanks

  private var owned: Vector[Array[Any]] = _
  private var i = 0

  override def open(): Unit = {
    val lh = Histograms.toArray(localHist, radix.fan)
    val gh = Histograms.toArray(globalHist, radix.fan)
    val n = ctx.nRanks
    // Every rank's local histogram: counts(rank)(partition).
    val counts = ctx.allGather(lh)

    // Layout of each owner's window: owned partitions in increasing id,
    // each region exactly the global partition size. Summed in Long: every
    // offset below is at most its owner's window size, checked to fit an Int.
    val partBase = new Array[Long](radix.fan)
    val winSizePerRank = new Array[Long](n)
    var p = 0
    while (p < radix.fan) {
      val o = ownerOf(p)
      partBase(p) = winSizePerRank(o)
      winSizePerRank(o) += gh(p)
      p += 1
    }
    for (o <- 0 until n)
      require(winSizePerRank(o) <= Int.MaxValue,
        s"MpiExchange window of rank $o needs ${winSizePerRank(o)} rows, more than an Int window holds")
    val winLen = winSizePerRank(ctx.rank).toInt
    val wordWin = if (compress) ctx.winCreate[Long](winLen) else null
    val rowWin  = if (compress) null else ctx.winCreate[Array[Any]](winLen)

    // Exclusive write cursor per partition: base + sum of lower ranks' counts.
    val cursor = new Array[Int](radix.fan)
    p = 0
    while (p < radix.fan) {
      var off = partBase(p)
      var r = 0
      while (r < ctx.rank) { off += counts(r)(p); r += 1 }
      cursor(p) = off.toInt
      p += 1
    }

    // Write-combining batches, flushed by one-sided puts (paper §4.1.1):
    // packed words when compressing, the rows themselves otherwise.
    val words = if (compress) Array.fill(radix.fan)(new Array[Long](BatchRows)) else null
    val rows  = if (compress) null else Array.fill(radix.fan)(new Array[Array[Any]](BatchRows))
    val fill  = new Array[Int](radix.fan)

    def flush(p: Int): Unit = {
      val len = fill(p)
      if (len > 0) {
        val bytes = len.toLong * bytesPerTuple
        if (compress) ctx.put(wordWin, ownerOf(p), cursor(p), words(p), len, bytes)
        else ctx.put(rowWin, ownerOf(p), cursor(p), rows(p), len, bytes)
        cursor(p) += len
        fill(p) = 0
      }
    }

    data.open()
    var t = data.next()
    while (t != null) {
      val pid = radix(t)
      if (compress) words(pid)(fill(pid)) = packRow(t, radix.bits)
      else rows(pid)(fill(pid)) = t
      fill(pid) += 1
      if (fill(pid) == BatchRows) flush(pid)
      t = data.next()
    }
    data.close()
    p = 0
    while (p < radix.fan) { flush(p); p += 1 }

    ctx.fence(if (compress) wordWin else rowWin)
    val mine = if (compress) unpack(wordWin.local(ctx.rank)) else rowWin.local(ctx.rank)
    owned = (0 until radix.fan).filter(ownerOf(_) == ctx.rank).map { pid =>
      Array[Any](
        pid,
        new RowSlice(mine, partBase(pid).toInt, gh(pid).toInt): RowVec,
      )
    }.toVector
    i = 0
  }

  override def next(): Array[Any] =
    if (i >= owned.size) null
    else { val t = owned(i); i += 1; t }

  override def close(): Unit = owned = null
}

/** The radix-compressed word of the network phase (paper §4.1.1): with
  * identity-hash radix partitioning into 2^F partitions, the low F bits of
  * the key equal the partition id, so they are dropped; the key's high bits
  * and the payload are packed into one 64-bit word, halving wire bytes. The
  * receiver unpacks each word once into ⟨khi, value⟩; the dropped bits are
  * recovered downstream from the networkPartitionID.
  */
object MpiExchange {
  /** Tuples per write-combining batch, i.e. per one-sided put. */
  final val BatchRows = 1024

  /** Payload bits of a packed word: the payload occupies the low 32 bits. */
  final val PBits = 32

  /** Wire size of one packed word. */
  final val WordBytes = java.lang.Long.BYTES

  /** Whether tuples of type `t` fit the word: exactly ⟨long, long⟩. */
  def compressible(t: TupleType): Boolean = t.fields.map(_._2) == Vector(Atom.LongA, Atom.LongA)

  /** `((k >>> fBits) << PBits) | v`. The word's domain is `0 ≤ v < 2^PBits`
    * and `0 ≤ k < 2^(PBits + fBits)`; anything outside it would come back
    * as a different tuple, so it is refused.
    */
  def pack(k: Long, v: Long, fBits: Int): Long = {
    if ((v >>> PBits) != 0 || (k >>> (PBits + fBits)) != 0)
      throw new IllegalArgumentException(
        s"radix compression packs only 0 ≤ v < 2^$PBits and 0 ≤ k < 2^${PBits + fBits}, got k=$k v=$v")
    ((k >>> fBits) << PBits) | v
  }

  /** The word of a ⟨k, v⟩ row. A null has no word (it would unbox to 0), so
    * a null key or payload is refused.
    */
  def packRow(t: Array[Any], fBits: Int): Long = {
    if (t(0) == null || t(1) == null)
      throw new IllegalArgumentException(s"radix compression packs no null, got ⟨${t(0)}, ${t(1)}⟩")
    pack(t(0).asInstanceOf[Long], t(1).asInstanceOf[Long], fBits)
  }

  /** Received words as fresh ⟨khi, value⟩ rows, each word unpacked once,
    * in order.
    */
  def unpack(words: Array[Long]): Array[Array[Any]] = {
    val rows = new Array[Array[Any]](words.length)
    var i = 0
    while (i < words.length) { rows(i) = Array[Any](keyHi(words(i)), value(words(i))); i += 1 }
    rows
  }

  def keyHi(c: Long): Long = c >>> PBits
  def value(c: Long): Long = c & ((1L << PBits) - 1)
  def restoreKey(keyHi: Long, npid: Int, fBits: Int): Long = (keyHi << fBits) | npid
}
