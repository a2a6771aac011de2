package repro.plans

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer

import repro.core._
import repro.monolith.MonolithicRadixJoin
import repro.mpi.{MpiExecutor, NetConfig}
import repro.plans.PlanPieces.DistConfig
import repro.plans.RadixJoinPlan.JoinSpec

/** Seeded properties over arbitrary longs: every distributed plan equals a
  * reference on negative, wide, skewed and duplicated keys and payloads,
  * empty ranks and 1–8 ranks. With compression on, an input with a tuple
  * outside the packed word's domain throws IllegalArgumentException and
  * every other input equals the reference.
  */
class PlanPropertiesSpec extends AnyFunSuite {
  private val NetBits = 3
  private val net =
    NetConfig(ranksPerMachine = 1, crossBytesPerSec = Long.MaxValue, msgLatencyNanos = 0)
  private def cfg(nRanks: Int, compress: Boolean) =
    DistConfig(nRanks = nRanks, net = net, netBits = NetBits, localBits = 2, compress = compress)

  private val KeyBound = 1L << (32 + NetBits)
  private val ValBound = 1L << 32

  private def fits(t: Array[Any]): Boolean = {
    val k = t(0).asInstanceOf[Long]
    val v = t(1).asInstanceOf[Long]
    k >= 0 && k < KeyBound && v >= 0 && v < ValBound
  }

  /** In-domain keys: a small dense range (many duplicates), one hot key, and
    * the word's upper edge. Out of domain: negative, past the edge, anything.
    */
  private val goodKey: Gen[Long] = Gen.frequency(
    6 -> Gen.choose(0L, 31L), 2 -> Gen.const(5L), 1 -> Gen.choose(KeyBound - 16, KeyBound - 1))
  private val anyKey: Gen[Long] = Gen.frequency(
    6 -> goodKey, 1 -> Gen.choose(-16L, -1L), 1 -> Gen.choose(KeyBound, KeyBound + 16),
    1 -> Gen.oneOf(8L + KeyBound, Long.MinValue, Long.MaxValue), 1 -> Gen.long)
  private val goodVal: Gen[Long] = Gen.frequency(
    3 -> Gen.choose(0L, 99L), 1 -> Gen.choose(ValBound - 4, ValBound - 1))
  private val anyVal: Gen[Long] = Gen.frequency(
    6 -> goodVal, 1 -> Gen.choose(-4L, -1L), 1 -> Gen.choose(ValBound, 1L << 34), 1 -> Gen.long)

  /** One relation sharded over `nRanks` ranks, some of them empty. */
  private def relation(nRanks: Int, clean: Boolean, maxRows: Int): Gen[Vector[Vector[Array[Any]]]] = {
    val row = for {
      k <- if (clean) goodKey else anyKey
      v <- if (clean) goodVal else anyVal
    } yield Array[Any](k, v)
    val rank = Gen.frequency(1 -> Gen.const(0), 3 -> Gen.choose(1, maxRows))
      .flatMap(n => Gen.listOfN(n, row).map(_.toVector))
    Gen.listOfN(nRanks, rank).map(_.toVector)
  }

  /** One case: the rank count, the compression flag and `nRel` relations,
    * all in the word's domain or all drawn from any long.
    */
  private def cases(nRel: Int, maxRows: Int) = for {
    nRanks   <- Gen.choose(1, 8)
    compress <- Gen.oneOf(true, false)
    clean    <- Gen.frequency(1 -> true, 1 -> false)
    rels     <- Gen.listOfN(nRel, relation(nRanks, clean, maxRows))
  } yield (nRanks, compress, rels.toVector)

  private def forSeeds[A](gen: Gen[A], n: Int, base: Long)(check: A => Unit): Unit =
    (0 until n).foreach { i =>
      val a = gen.pureApply(Gen.Parameters.default, Seed(base + i))
      withClue(s"seed ${base + i}: ")(check(a))
    }

  private def toRowVecs(rel: Vector[Vector[Array[Any]]]): Vector[RowVec] =
    rel.map(rows => ArrayBuffer.from(rows): RowVec)

  private def multiset(rows: Iterable[Seq[Any]]): Map[Seq[Any], Int] =
    rows.groupBy(identity).view.mapValues(_.size).toMap

  /** `run` throws IllegalArgumentException when the input cannot be packed,
    * and otherwise returns `expected`.
    */
  private def checkAgainst[A](expected: => A, refused: Boolean)(run: => A): Unit =
    if (refused) intercept[IllegalArgumentException](run)
    else assert(run == expected)

  test("radix join ≡ nested-loop reference ≡ monolith (seeded, arbitrary longs)") {
    forSeeds(cases(nRel = 2, maxRows = 10), n = 150, base = 7000) { case (nRanks, compress, rels) =>
      val Vector(r, s) = rels
      val ref = multiset(for {
        rt <- r.flatten; st <- s.flatten if rt(0) == st(0)
      } yield Seq[Any](rt(0), rt(1), st(1)))
      val outOfDomain = !rels.flatten.flatten.forall(fits)
      checkAgainst(ref, compress && outOfDomain) {
        val (stream, _) = RadixJoinPlan.driver(toRowVecs(r), toRowVecs(s),
          Workloads.pairTypeNamed("rv"), Workloads.pairTypeNamed("sv"),
          JoinSpec(cfg(nRanks, compress)))
        multiset(stream.drain().map(_.toSeq))
      }
      checkAgainst(ref, outOfDomain) {
        multiset(MonolithicRadixJoin.run(toRowVecs(r), toRowVecs(s), nRanks, net, NetBits, 2)
          .flatMap(_.rows).map(_.toSeq))
      }
    }
  }

  test("GROUP BY ≡ reference fold (seeded, arbitrary longs)") {
    forSeeds(cases(nRel = 1, maxRows = 16), n = 150, base = 8000) { case (nRanks, compress, rels) =>
      val rows = rels(0).flatten
      val ref = rows.groupMapReduce(_(0).asInstanceOf[Long])(_(1).asInstanceOf[Long])(_ + _)
      checkAgainst(ref, compress && !rows.forall(fits)) {
        val (stream, _) = GroupByPlan.driver(toRowVecs(rels(0)), Workloads.PairType, cfg(nRanks, compress))
        val out = stream.drain()
        assert(out.map(_(0)).distinct.size == out.size, "a key occurs twice in the driver stream")
        out.map(t => t(0).asInstanceOf[Long] -> t(1).asInstanceOf[Long]).toMap
      }
    }
  }

  test("naive ≡ optimized join sequence (seeded, arbitrary longs)") {
    val relCount = Gen.choose(3, 4).flatMap(cases(_, maxRows = 6))
    forSeeds(relCount, n = 80, base = 9000) { case (nRanks, compress, rels) =>
      def run(optimized: Boolean) = {
        val (stream, _) = JoinSequencePlan.driver(rels.map(toRowVecs), cfg(nRanks, compress), optimized)
        multiset(stream.drain().map(t => stream.outType.fieldNames.zip(t).sortBy(_._1)))
      }
      if (compress && !rels.flatten.flatten.forall(fits)) {
        intercept[IllegalArgumentException](run(optimized = true))
        intercept[IllegalArgumentException](run(optimized = false))
      } else assert(run(optimized = true) == run(optimized = false))
    }
  }

  test("no rank's phases add up to more than the query's wall time") {
    // A naive stage's whole upstream runs inside its localHistogram span,
    // and four relations nest it twice: nested time must count once.
    val c = cfg(2, compress = true)
    val rels = (0 until 4).map(i =>
      Workloads.shard(Workloads.densePairs(100_000, 1, seed = 100 + i), 2)).toVector
    def check(plan: String)(built: (SubOp, MpiExecutor)): Unit = {
      val (stream, exec) = built
      val t0 = System.nanoTime()
      stream.drain()
      val wall = System.nanoTime() - t0
      val busiest = exec.report.busiestRankNanos
      assert(busiest <= wall, s"$plan: a rank's phases sum to ${busiest / 1e6} ms in a ${wall / 1e6} ms query")
    }
    for (nRel <- Seq(3, 4))
      check(s"naive $nRel-relation sequence")(JoinSequencePlan.driver(rels.take(nRel), c, optimized = false))
    check("optimized sequence")(JoinSequencePlan.driver(rels, c, optimized = true))
    val Vector(r, s, _, _) = rels
    check("radix join")(RadixJoinPlan.driver(r, s,
      Workloads.pairTypeNamed("rv"), Workloads.pairTypeNamed("sv"), JoinSpec(c)))
    check("GROUP BY")(GroupByPlan.driver(r, Workloads.PairType, c))
  }
}
