package repro.core

/** Identity-hash radix partitioning (paper §4.1.1; Balkesen et al., ICDE
  * 2013): the partition of a tuple is the `bits` bits of its long key
  * (field 0) that start at bit `shift`, one of `fan = 2^bits` partitions.
  * The network partition takes a key's low bits (shift 0), which is why a
  * radix-compressed word may drop them; the local partition takes the next
  * bits. The bounds keep `fan` a positive `Int` and the bits inside the key.
  */
final case class Radix(shift: Int, bits: Int) extends (Array[Any] => Int) {
  require(bits >= 0 && bits <= 30, s"radix partitioning takes 0 to 30 key bits, got $bits")
  require(shift >= 0 && shift + bits <= 64,
    s"radix bits must lie inside the 64-bit key, got shift $shift and $bits bits")

  val fan: Int = 1 << bits

  def of(k: Long): Int = ((k >>> shift) & (fan - 1)).toInt
  def apply(t: Array[Any]): Int = of(t(0).asInstanceOf[Long])
}
