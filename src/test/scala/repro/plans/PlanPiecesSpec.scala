package repro.plans

import org.scalatest.funsuite.AnyFunSuite

import repro.core._
import repro.core.TestData._
import repro.mpi.{MpiExchange, MpiRuntime, NetConfig}
import repro.plans.PlanPieces._

class PlanPiecesSpec extends AnyFunSuite {
  private val net =
    NetConfig(ranksPerMachine = 1, crossBytesPerSec = Long.MaxValue, msgLatencyNanos = 0)
  private def cfg(n: Int) = DistConfig(nRanks = n, net = net, netBits = 3, localBits = 2)

  test("DistConfig rejects fewer partitions than ranks") {
    intercept[IllegalArgumentException] {
      DistConfig(nRanks = 16, net = net, netBits = 3)
    }
  }

  test("DistConfig fanouts derive from bit widths") {
    val c = cfg(4)
    assert(c.netFan == 8 && c.localFan == 4)
    assert(c.netRadix == Radix(0, 3) && c.localRadix == Radix(3, 2))
  }

  test("DistConfig and Radix refuse bit widths whose fanout overflows an Int") {
    // 1 << 32 wraps to 1: the exchange would drop no bits while restoreKeys
    // shifted by 32, and netBits = 31 would give a negative fanout.
    for (bits <- Seq(31, 32)) {
      val e = intercept[IllegalArgumentException](
        DistConfig(nRanks = 1, net = net, netBits = bits, localBits = 2))
      assert(e.getMessage.contains("0 to 30 key bits"), e.getMessage)
    }
    intercept[IllegalArgumentException](DistConfig(nRanks = 1, net = net, netBits = 3, localBits = 31))
    intercept[IllegalArgumentException](Radix(0, -1))
    intercept[IllegalArgumentException](Radix(-1, 2))
    val e = intercept[IllegalArgumentException](Radix(40, 30))
    assert(e.getMessage.contains("inside the 64-bit key"), e.getMessage)
    assert(Radix(0, 30).fan == (1 << 30) && Radix(34, 30).of(-1L) == (1 << 30) - 1)
  }

  test("scanField dissects a collection field of the slot tuple") {
    val t = TupleType.of("r" -> CollectionType(PairT))
    val slot = new ParamSlot(t)
    slot.current = Array[Any](pairs(1L -> 10L, 2L -> 20L))
    val s = scanField(slot, "r")
    assert(asPairs(s.drain().toSeq) == Seq(1L -> 10L, 2L -> 20L))
  }

  test("netRadix uses the identity-radix low bits") {
    val f = cfg(4).netRadix // netFan 8
    assert(f(Array[Any](5L, 0L)) == 5)
    assert(f(Array[Any](8L, 0L)) == 0)
    assert(f(Array[Any](13L, 0L)) == 5)
  }

  test("localPartOf takes the next bits (raw and compressed agree)") {
    val c = cfg(4)
    val raw = localPartOf(c, compressed = false)
    val com = localPartOf(c, compressed = true)
    assert(raw == Radix(c.netBits, 2) && com == Radix(0, 2))
    val k = 0x5DL // binary 101_1101: net bits 101, local bits 11
    assert(raw(Array[Any](k, 0L)) == 3)
    // A compressed exchange delivers ⟨khi, v⟩ with khi = k >>> netBits; the
    // payload's low bits (4 & 3 == 0) differ from the partition, so only
    // reading khi from field 0 gives 3.
    val Array(khi, v) = MpiExchange.unpack(Array(MpiExchange.pack(k, 4L, c.netBits)))(0)
    assert(khi == (k >>> c.netBits) && v == 4L)
    assert(com(Array[Any](khi, v)) == 3)
  }

  test("restoreKeys recovers the dropped partition bits via the npid") {
    val c = cfg(2)
    val slotT = TupleType.of("npid" -> Atom.IntA, "x" -> Atom.LongA)
    val slot = new ParamSlot(slotT)
    val khi = 42L >>> c.netBits // key 42 = khi << 3 | 42 & 7, in network partition 2
    slot.current = Array[Any](c.netRadix.of(42L), 0L)
    val up = new VectorSource(Vector(Array[Any](khi, 99L)),
      TupleType.of("khi" -> Atom.LongA, "v" -> Atom.LongA))
    val restored = restoreKeys(up, slot, "npid", c).drainOne()
    assert(restored(0) == 42L)
    assert(restored(1) == 99L)
  }

  test("exchangePipeline partitions a keyed stream across ranks") {
    val c = cfg(2)
    val rt = new MpiRuntime(2, net)
    val results = rt.run { ctx =>
      val rows = (0L until 16L).map(k => k -> ctx.rank.toLong)
      val ex = exchangePipeline(src(rows: _*), new ParamSlot(PairT), ctx, c, compress = false)
      ex.drain().map { t =>
        val pid = t(0).asInstanceOf[Int]
        (pid, t(1).asInstanceOf[RowVec].size)
      }.toSeq
    }
    // 8 partitions, 2 keys each, 2 copies (one per source rank) => 4 rows
    assert(results.flatten.size == 8)
    assert(results.flatten.forall(_._2 == 4))
    assert(results(0).map(_._1) == Seq(0, 2, 4, 6))
  }

  test("localPartitionSide attaches npid and partitions the data") {
    val c = cfg(2)
    val slotT = TupleType.of(
      "npid" -> Atom.IntA, "data" -> CollectionType(PairT))
    val slot = new ParamSlot(slotT)
    // keys with identical net bits (partition 1), differing local bits
    slot.current = Array[Any](1, pairs(1L -> 0L, 9L -> 0L, 17L -> 0L, 25L -> 0L))
    val rt = new MpiRuntime(1, net)
    val rows = rt.run { ctx =>
      val side = localPartitionSide(slot, ctx, c, "npid", "data", "lpid", "ldata",
        compressed = false)
      side.drain().map(t => (t(0), t(1), t(2).asInstanceOf[RowVec].size)).toSeq
    }.head
    assert(rows.size == c.localFan)
    assert(rows.forall(_._1 == 1)) // npid re-attached to every partition
    assert(rows.map(_._3).sum == 4)
  }

  test("sumLongValue combines stripped single-value tuples") {
    assert(sumLongValue(Array[Any](2L), Array[Any](40L))(0) == 42L)
  }
}
