package repro.mpi

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import MpiExchange.{keyHi, pack, restoreKey, unpack, value}

class CompressionSpec extends AnyFunSuite {

  test("pack/restore round-trips keys and values (property)") {
    val rnd = new Random(3)
    for (_ <- 1 to 200) {
      val fBits = 1 + rnd.nextInt(6)
      val k = rnd.nextLong(1L << (MpiExchange.PBits + fBits))
      val v = rnd.nextLong(1L << MpiExchange.PBits)
      val npid = (k & ((1L << fBits) - 1)).toInt
      val packed = pack(k, v, fBits)
      assert(value(packed) == v)
      assert(restoreKey(keyHi(packed), npid, fBits) == k)
    }
  }

  test("unpack then restoreKey gives back ⟨k, v⟩ across the word's whole domain") {
    val rnd = new Random(5)
    for (fBits <- 1 to 8) {
      val kTop = 1L << (MpiExchange.PBits + fBits)
      val vTop = 1L << MpiExchange.PBits
      val edges = Seq(0L -> 0L, (kTop - 1) -> (vTop - 1), 0L -> (vTop - 1), (kTop - 1) -> 0L)
      val kvs = edges ++ Seq.fill(200)(rnd.nextLong(kTop) -> rnd.nextLong(vTop))
      val rows = unpack(kvs.map { case (k, v) => pack(k, v, fBits) }.toArray)
      assert(rows.length == kvs.size)
      for (((k, v), row) <- kvs.zip(rows)) {
        assert(row.length == 2)
        val npid = (k & ((1L << fBits) - 1)).toInt
        assert(restoreKey(row(0).asInstanceOf[Long], npid, fBits) == k)
        assert(row(1) == v)
      }
    }
  }

  test("keys equal iff (keyHi, npid) equal — joins on keyHi are sound") {
    val fBits = 4
    val mask = (1L << fBits) - 1
    for (k1 <- 0L until 64L; k2 <- 0L until 64L if (k1 & mask) == (k2 & mask)) {
      val p1 = pack(k1, 0L, fBits)
      val p2 = pack(k2, 0L, fBits)
      assert((keyHi(p1) == keyHi(p2)) == (k1 == k2))
    }
  }

  test("pack refuses tuples outside the word's domain, naming the bound") {
    val fBits = 3
    val top = 1L << (MpiExchange.PBits + fBits)
    assert(restoreKey(keyHi(pack(top - 1, 0L, fBits)), 7, fBits) == top - 1)
    assert(value(pack(0L, (1L << 32) - 1, fBits)) == (1L << 32) - 1)
    for ((k, v) <- Seq((-1L, 0L), (top, 0L), (Long.MinValue, 0L), (0L, -1L), (0L, 1L << 32)))
      assert(intercept[IllegalArgumentException](pack(k, v, fBits))
        .getMessage.contains("0 ≤ k < 2^35"))
  }
}
