package repro.core

import scala.util.hashing.byteswap32

/** Reduce (paper §3.3.2): folds all upstream tuples into a single tuple with
  * an associative, commutative combine function. Emits nothing on empty
  * input. The accumulator starts as the upstream's first row, which its
  * input may still hold, so unlike [[ReduceByKey]]'s the combine must not
  * write into its arguments.
  */
final class Reduce(up: SubOp, f: (Array[Any], Array[Any]) => Array[Any]) extends SubOp {
  override val outType: TupleType = up.outType
  private var result: Array[Any] = _
  private var emitted = false

  override def open(): Unit = {
    up.open()
    var acc = up.next()
    if (acc != null) {
      var t = up.next()
      while (t != null) { acc = f(acc, t); t = up.next() }
    }
    up.close()
    result = acc
    emitted = false
  }

  override def next(): Array[Any] =
    if (emitted || result == null) null
    else { emitted = true; result }

  override def close(): Unit = result = null
}

/** ReduceByKey (paper §3.3.2): combines all tuples with the same value in the
  * `keyField` into one. As in the paper, the key field is stripped from the
  * tuples passed to the combine function and re-attached (in the original
  * field position) before tuples are returned; the output type equals the
  * input type. Groups come out in the order of their keys' first occurrence.
  *
  * The operator owns each group's accumulator: a new group's is a stripped
  * copy of its first tuple, and every later tuple is stripped into one
  * scratch array. The combine may therefore update its first argument in
  * place and return it; it must not keep its second. A combine that returns
  * the scratch array itself makes it that group's accumulator, and the
  * operator takes a new scratch array.
  */
final class ReduceByKey(
    up: SubOp,
    keyField: String,
    f: (Array[Any], Array[Any]) => Array[Any], // combine of key-stripped value tuples
) extends SubOp {
  override val outType: TupleType = up.outType
  override def freshRows: Boolean = true
  private val keyIdx = up.outType.indexOf(keyField)
  private val arity  = up.outType.arity

  // Group g's key, accumulator and key hash sit at index g of parallel
  // arrays, in first-occurrence order; bucket b's chain starts at head(b)
  // and continues through chain(g), -1 ending it. The arrays are kept
  // across re-opens (NestedMap re-opens one instance per sub-partition), so
  // the table grows to the largest invocation once and not on every open.
  private var keys = new Array[Any](0)
  private var accs = new Array[Array[Any]](0)
  private var hashes = new Array[Int](0)
  private var chain = new Array[Int](0)
  private var head: Array[Int] = _
  private var mask = 0
  private var groups = 0
  private var emitted = 0
  private var scratch = new Array[Any](arity - 1)
  resize(ReduceByKey.InitialGroups)

  /** Copies `t` without its key field into `v`. */
  private def strip(t: Array[Any], v: Array[Any]): Array[Any] = {
    var i = 0; var o = 0
    while (i < arity) { if (i != keyIdx) { v(o) = t(i); o += 1 }; i += 1 }
    v
  }

  /** Resizes the group arrays to `capacity` and re-chains every group into
    * a head array of twice as many buckets.
    */
  private def resize(capacity: Int): Unit = {
    keys = Array.copyOf(keys, capacity)
    accs = Array.copyOf(accs, capacity)
    hashes = Array.copyOf(hashes, capacity)
    chain = Array.copyOf(chain, capacity)
    head = Array.fill(2 * capacity)(-1)
    mask = head.length - 1
    var g = 0
    while (g < groups) {
      chain(g) = head(hashes(g) & mask)
      head(hashes(g) & mask) = g
      g += 1
    }
  }

  override def open(): Unit = {
    java.util.Arrays.fill(head, -1)
    groups = 0
    up.open()
    var t = up.next()
    while (t != null) {
      val k = t(keyIdx)
      val h = byteswap32(k.##) // equal under == ⇒ equal ##
      var g = head(h & mask)
      while (g >= 0 && !(hashes(g) == h && keys(g) == k)) g = chain(g)
      if (g >= 0) {
        val acc = f(accs(g), strip(t, scratch))
        accs(g) = acc
        if (acc eq scratch) scratch = new Array[Any](arity - 1)
      } else {
        if (groups == keys.length) resize(2 * groups)
        g = groups
        keys(g) = k
        accs(g) = strip(t, new Array[Any](arity - 1))
        hashes(g) = h
        chain(g) = head(h & mask)
        head(h & mask) = g
        groups += 1
      }
      t = up.next()
    }
    up.close()
    emitted = 0
  }

  override def next(): Array[Any] =
    if (emitted >= groups) null
    else {
      val k = keys(emitted)
      val v = accs(emitted)
      emitted += 1
      val out = new Array[Any](arity)
      var j = 0; var o = 0
      while (j < arity) {
        if (j == keyIdx) out(j) = k else { out(j) = v(o); o += 1 }
        j += 1
      }
      out
    }

  override def close(): Unit = ()
}

object ReduceByKey {
  /** Group capacity of a new table; it doubles as groups arrive. */
  private final val InitialGroups = 64
}
