package repro.mpi

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class CompressionSpec extends AnyFunSuite {

  test("radixLongPair packs into a single long field") {
    val c = Compression.radixLongPair(fBits = 3)
    assert(c.enabled)
    assert(c.outType.fieldNames == Vector("c"))
    val packed = c.pack(Array[Any](42L, 7L), 2)
    assert(packed.length == 1)
  }

  test("none is disabled") {
    assert(!Compression.none.enabled)
  }

  test("pack/restore round-trips keys and values (property)") {
    val rnd = new Random(3)
    for (_ <- 1 to 200) {
      val fBits = 1 + rnd.nextInt(6)
      val pBits = 24 + rnd.nextInt(16)
      val c = Compression.radixLongPair(fBits, pBits)
      val k = rnd.nextLong(1L << 24)
      val v = rnd.nextLong(1L << pBits)
      val npid = (k & ((1L << fBits) - 1)).toInt
      val packed = c.pack(Array[Any](k, v), npid)(0).asInstanceOf[Long]
      assert(Compression.value(packed, pBits) == v)
      assert(Compression.restoreKey(Compression.keyHi(packed, pBits), npid, fBits) == k)
    }
  }

  test("keys equal iff (keyHi, npid) equal — joins on keyHi are sound") {
    val fBits = 4; val pBits = 32
    val c = Compression.radixLongPair(fBits, pBits)
    val mask = (1L << fBits) - 1
    for (k1 <- 0L until 64L; k2 <- 0L until 64L if (k1 & mask) == (k2 & mask)) {
      val p1 = c.pack(Array[Any](k1, 0L), (k1 & mask).toInt)(0).asInstanceOf[Long]
      val p2 = c.pack(Array[Any](k2, 0L), (k2 & mask).toInt)(0).asInstanceOf[Long]
      assert((Compression.keyHi(p1, pBits) == Compression.keyHi(p2, pBits)) == (k1 == k2))
    }
  }

  test("NetStats totals") {
    val s = new NetStats
    s.bytesCross = 10; s.bytesLocal = 5
    assert(s.bytesTotal == 15)
  }
}
