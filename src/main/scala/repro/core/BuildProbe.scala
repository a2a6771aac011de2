package repro.core

import scala.util.hashing.byteswap32

/** Join variants. The paper's extensibility claim (§5.1.1) is that new join
  * types only require modifying this one 103-SLOC operator — we implement
  * inner, semi, anti, and (probe-preserving) outer to substantiate it.
  * Semi/anti/outer preserve the probe side.
  */
sealed trait JoinKind
object JoinKind {
  case object Inner extends JoinKind
  case object Semi  extends JoinKind
  case object Anti  extends JoinKind
  case object Outer extends JoinKind
}

/** BuildProbe (paper §3.3.2): hash join of the build (left) and probe (right)
  * upstreams on a set of identically named join attributes. Inner/outer
  * output = join attributes + remaining build fields + remaining probe fields
  * (names must be distinct); semi/anti output = the unmodified probe tuple.
  *
  * SQL null semantics: a null in any join attribute never matches (and such
  * probe tuples are kept by Anti/Outer), so results agree with DuckDB.
  */
final class BuildProbe(
    build: SubOp,
    probe: SubOp,
    joinAttrs: Seq[String],
    kind: JoinKind = JoinKind.Inner,
) extends SubOp {
  require(joinAttrs.nonEmpty, "BuildProbe needs at least one join attribute")

  private val bType = build.outType
  private val pType = probe.outType
  private val bKeyIdx  = joinAttrs.map(bType.indexOf).toArray
  private val pKeyIdx  = joinAttrs.map(pType.indexOf).toArray
  private val bRestIdx = bType.fieldNames.zipWithIndex
    .collect { case (n, i) if !joinAttrs.contains(n) => i }.toArray
  private val pRestIdx = pType.fieldNames.zipWithIndex
    .collect { case (n, i) if !joinAttrs.contains(n) => i }.toArray

  override val outType: TupleType = kind match {
    case JoinKind.Semi | JoinKind.Anti => pType
    case _ =>
      bType.project(joinAttrs) ++
        bType.without(joinAttrs.toSet) ++
        pType.without(joinAttrs.toSet)
  }

  // Inner and Outer build every output row; Semi and Anti pass the probe row through.
  override val freshRows: Boolean = kind == JoinKind.Inner || kind == JoinKind.Outer

  // Bucket-chained hash table over the build rows (the layout of Balkesen et
  // al., ICDE 2013): row i sits in rows(i) with its key hash in hashes(i);
  // bucket b's chain starts at head(b) and continues through chain(i), -1
  // ending it. Chains run in build order, so matches come out in that order.
  private var rows: RowVec = _
  private var hashes: Array[Int] = _
  private var chain: Array[Int] = _
  private var head: Array[Int] = _
  private var mask = 0
  private var pCur: Array[Any] = _
  private var pHash = 0
  private var cursor = -1

  private def hasNullKey(t: Array[Any], idx: Array[Int]): Boolean = {
    var i = 0
    while (i < idx.length) { if (t(idx(i)) == null) return true; i += 1 }
    false
  }

  /** Mixes the `##` of the key columns, so keys equal under `==` (also
    * across numeric box types) hash alike.
    */
  private def hashOf(t: Array[Any], idx: Array[Int]): Int = {
    var h = 0
    var i = 0
    while (i < idx.length) { h = h * 31 + t(idx(i)).##; i += 1 }
    byteswap32(h)
  }

  /** The first build row at or after chain position `from` whose key equals pCur's. */
  private def matchFrom(from: Int): Int = {
    var i = from
    while (i >= 0) {
      if (hashes(i) == pHash) {
        val bt = rows(i)
        var k = 0
        while (k < bKeyIdx.length && bt(bKeyIdx(k)) == pCur(pKeyIdx(k))) k += 1
        if (k == bKeyIdx.length) return i
      }
      i = chain(i)
    }
    -1
  }

  override def open(): Unit = {
    rows = build.drain()
    val n = rows.length
    val buckets = Integer.highestOneBit(math.max(2 * n - 1, 1)) << 1 // least power of two ≥ 2n
    hashes = new Array[Int](n)
    chain = new Array[Int](n)
    head = Array.fill(buckets)(-1)
    mask = buckets - 1
    // Push rows in reverse so that each chain lists them in build order.
    var i = n - 1
    while (i >= 0) {
      val bt = rows(i)
      if (!hasNullKey(bt, bKeyIdx)) { // a null key never matches
        val h = hashOf(bt, bKeyIdx)
        hashes(i) = h
        chain(i) = head(h & mask)
        head(h & mask) = i
      }
      i -= 1
    }
    probe.open()
    pCur = null
    cursor = -1
  }

  private def emit(bt: Array[Any], pt: Array[Any]): Array[Any] = {
    val out = new Array[Any](joinAttrs.size + bRestIdx.length + pRestIdx.length)
    var o = 0
    var i = 0
    while (i < bKeyIdx.length)  { out(o) = if (bt != null) bt(bKeyIdx(i)) else pt(pKeyIdx(i)); o += 1; i += 1 }
    i = 0
    while (i < bRestIdx.length) { out(o) = if (bt != null) bt(bRestIdx(i)) else null; o += 1; i += 1 }
    i = 0
    while (i < pRestIdx.length) { out(o) = pt(pRestIdx(i)); o += 1; i += 1 }
    out
  }

  override def next(): Array[Any] = {
    while (true) {
      if (cursor >= 0) {
        val bt = rows(cursor)
        cursor = matchFrom(chain(cursor))
        return emit(bt, pCur)
      }
      pCur = probe.next()
      if (pCur == null) return null
      if (hasNullKey(pCur, pKeyIdx)) cursor = -1
      else {
        pHash = hashOf(pCur, pKeyIdx)
        cursor = matchFrom(head(pHash & mask))
      }
      kind match {
        case JoinKind.Inner =>
        case JoinKind.Semi =>
          if (cursor >= 0) { cursor = -1; return pCur }
        case JoinKind.Anti =>
          if (cursor < 0) return pCur
          cursor = -1
        case JoinKind.Outer =>
          if (cursor < 0) return emit(null, pCur)
      }
    }
    null // unreachable
  }

  override def close(): Unit = {
    probe.close()
    rows = null
    hashes = null
    chain = null
    head = null
  }
}
