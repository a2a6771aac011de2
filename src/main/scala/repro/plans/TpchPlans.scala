package repro.plans

import org.apache.spark.sql.DataFrame

import repro.core._
import repro.mpi.MpiExecutor
import PlanPieces._
import RadixJoinPlan.JoinSpec

/** TPC-H Queries 4, 12, 14, 19 as sub-operator plans (§4.4).
  *
  * All four follow the paper's pattern: filter+project both tables at the
  * scan (the `preR`/`preS` hooks), one distributed join (Fig 3; a semi-join
  * for Q4 — only the BuildProbe variant changes), then a query-specific
  * projection and post-aggregation, applied at every nesting level and once
  * more at the driver. Compression is off: the payloads are general tuples,
  * not ⟨8B,8B⟩ pairs.
  *
  * Inputs come from [[repro.data.TpchLite]] DataFrames, collected once into
  * driver arrays ("each rank reads its part of the base table"); dates are
  * carried as ISO strings (lexicographic order == date order).
  */
object TpchPlans {

  // Raw per-table tuple layouts inside the sub-operator engine.
  val LiT: TupleType = TupleType.of(
    "l_orderkey" -> Atom.LongA, "l_partkey" -> Atom.LongA,
    "l_quantity" -> Atom.DoubleA, "l_extendedprice" -> Atom.DoubleA,
    "l_discount" -> Atom.DoubleA, "l_shipdate" -> Atom.StringA,
    "l_shipmode" -> Atom.StringA, "l_shipinstruct" -> Atom.StringA,
    "l_commitdate" -> Atom.StringA, "l_receiptdate" -> Atom.StringA)

  val OrdT: TupleType = TupleType.of(
    "o_orderkey" -> Atom.LongA, "o_orderpriority" -> Atom.StringA,
    "o_orderdate" -> Atom.StringA)

  val PartT: TupleType = TupleType.of(
    "p_partkey" -> Atom.LongA, "p_type" -> Atom.StringA,
    "p_size" -> Atom.IntA, "p_brand" -> Atom.StringA,
    "p_container" -> Atom.StringA)

  /** The base tables with their layouts, in [[TpchData]] field order. */
  val Tables: Seq[(String, TupleType)] =
    Seq("lineitem" -> LiT, "orders" -> OrdT, "part" -> PartT)

  /** Base tables as driver-side tuple arrays (collected once, reusable). */
  final case class TpchData(
      lineitem: Array[Array[Any]],
      orders: Array[Array[Any]],
      part: Array[Array[Any]],
  )

  object TpchData {
    /** Each table's rows in its layout; string fields take the value's
      * `toString`, which turns a `java.sql.Date` into its ISO string.
      */
    def fromTables(tables: Map[String, DataFrame]): TpchData = {
      val Seq(li, ord, part) = Tables.map { case (name, layout) =>
        tables(name).collect().map { r =>
          layout.fields.map {
            case (col, Atom.StringA) => r.getAs[Any](col).toString
            case (col, _)            => r.getAs[Any](col)
          }.toArray
        }
      }
      TpchData(li, ord, part)
    }
  }

  /** One executed query: driver-level result tuples + the executor (its
    * `report` holds the per-rank stats).
    */
  final case class QueryRun(rows: Seq[Array[Any]], exec: MpiExecutor)

  /** Shard both tables (rows, layout) over the ranks, run the distributed
    * join of `spec` (Fig 3) and apply `spec.levelAgg` once more at the driver.
    */
  private def joinQuery(
      r: (Array[Array[Any]], TupleType),
      s: (Array[Array[Any]], TupleType),
      spec: JoinSpec,
  ): QueryRun = {
    val n = spec.cfg.nRanks
    val (stream, exec) = RadixJoinPlan.driver(
      Workloads.shard(r._1, n), Workloads.shard(s._1, n), r._2, s._2, spec)
    QueryRun(spec.levelAgg(stream).drain().toSeq, exec)
  }

  /** ReduceByKey combiner: adds into the accumulator it owns. */
  private val sumPairLong: (Array[Any], Array[Any]) => Array[Any] =
    (a, b) => {
      a(0) = a(0).asInstanceOf[Long] + b(0).asInstanceOf[Long]
      a(1) = a(1).asInstanceOf[Long] + b(1).asInstanceOf[Long]
      a
    }

  private val sumPairDouble: (Array[Any], Array[Any]) => Array[Any] =
    (a, b) => Array[Any](
      a(0).asInstanceOf[Double] + b(0).asInstanceOf[Double],
      a(1).asInstanceOf[Double] + b(1).asInstanceOf[Double])

  // ------------------------------------------------------------------- Q4

  /** Q4: order-priority checking — EXISTS over lineitem becomes a
    * distributed SEMI join with lineitem keys on the build side.
    */
  def q4(data: TpchData, cfg: DistConfig): QueryRun = {
    val liKeyT = TupleType.of("k" -> Atom.LongA)
    val preLi: SubOp => SubOp = up =>
      new MapOp(new FilterOp(up, t =>
        t(8).asInstanceOf[String] < t(9).asInstanceOf[String]),
        t => Array[Any](t(0)), liKeyT)
    val ordKeyT = TupleType.of("k" -> Atom.LongA, "pri" -> Atom.StringA)
    val preOrd: SubOp => SubOp = up =>
      new MapOp(new FilterOp(up, { t =>
        val dte = t(2).asInstanceOf[String]
        dte >= "1993-07-01" && dte < "1993-10-01"
      }), t => Array[Any](t(0), t(1)), ordKeyT)

    val aggT = TupleType.of("pri" -> Atom.StringA, "order_count" -> Atom.LongA)
    val post: SubOp => SubOp = up => new MapOp(up, t => Array[Any](t(1), 1L), aggT)
    val agg: SubOp => SubOp = up => new ReduceByKey(up, "pri", sumLongValue)

    val spec = JoinSpec(cfg, kind = JoinKind.Semi,
      preR = preLi, preS = preOrd, postJoin = post, levelAgg = agg)
    val run = joinQuery(data.lineitem -> LiT, data.orders -> OrdT, spec)
    run.copy(rows = run.rows.sortBy(_(0).asInstanceOf[String]))
  }

  def q4DuckSql: String =
    """SELECT o_orderpriority, count(*) AS order_count
      |FROM orders
      |WHERE o_orderdate >= '1993-07-01' AND o_orderdate < '1993-10-01'
      |  AND EXISTS (SELECT 1 FROM lineitem
      |              WHERE l_orderkey = o_orderkey
      |                AND l_commitdate < l_receiptdate)
      |GROUP BY o_orderpriority ORDER BY o_orderpriority""".stripMargin

  // ------------------------------------------------------------------ Q12

  /** Q12: shipping modes and order priority — join + GROUP BY l_shipmode
    * with two conditional counts (ReduceByKey at every level, §4.4).
    */
  def q12(data: TpchData, cfg: DistConfig): QueryRun = {
    val ordKeyT = TupleType.of("k" -> Atom.LongA, "pri" -> Atom.StringA)
    val preOrd: SubOp => SubOp = up =>
      new MapOp(up, t => Array[Any](t(0), t(1)), ordKeyT)
    val liKeyT = TupleType.of("k" -> Atom.LongA, "mode" -> Atom.StringA)
    val preLi: SubOp => SubOp = up =>
      new MapOp(new FilterOp(up, { t =>
        val mode = t(6).asInstanceOf[String]
        val ship = t(5).asInstanceOf[String]
        val commit = t(8).asInstanceOf[String]
        val receipt = t(9).asInstanceOf[String]
        (mode == "MAIL" || mode == "SHIP") &&
          commit < receipt && ship < commit &&
          receipt >= "1994-01-01" && receipt < "1995-01-01"
      }), t => Array[Any](t(0), t(6)), liKeyT)

    val aggT = TupleType.of("mode" -> Atom.StringA,
      "high_line_count" -> Atom.LongA, "low_line_count" -> Atom.LongA)
    val post: SubOp => SubOp = up => new MapOp(up, { t =>
      val pri = t(1).asInstanceOf[String]
      val high = if (pri == "1-URGENT" || pri == "2-HIGH") 1L else 0L
      Array[Any](t(2), high, 1L - high)
    }, aggT)
    val agg: SubOp => SubOp = up => new ReduceByKey(up, "mode", sumPairLong)

    val spec = JoinSpec(cfg, preR = preOrd, preS = preLi,
      postJoin = post, levelAgg = agg)
    val run = joinQuery(data.orders -> OrdT, data.lineitem -> LiT, spec)
    run.copy(rows = run.rows.sortBy(_(0).asInstanceOf[String]))
  }

  def q12DuckSql: String =
    """SELECT l_shipmode,
      |  sum(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 1 ELSE 0 END)
      |    AS high_line_count,
      |  sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT','2-HIGH') THEN 1 ELSE 0 END)
      |    AS low_line_count
      |FROM orders JOIN lineitem ON o_orderkey = l_orderkey
      |WHERE l_shipmode IN ('MAIL','SHIP')
      |  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
      |  AND l_receiptdate >= '1994-01-01' AND l_receiptdate < '1995-01-01'
      |GROUP BY l_shipmode ORDER BY l_shipmode""".stripMargin

  // ------------------------------------------------------------------ Q14

  /** Q14: promotion effect — join on partkey, then a two-accumulator Reduce
    * (promo revenue, total revenue) at every level; the driver computes the
    * final ratio.
    */
  def q14(data: TpchData, cfg: DistConfig): QueryRun = {
    val partKeyT = TupleType.of("k" -> Atom.LongA, "ptype" -> Atom.StringA)
    val prePart: SubOp => SubOp = up =>
      new MapOp(up, t => Array[Any](t(0), t(1)), partKeyT)
    val liKeyT = TupleType.of("k" -> Atom.LongA, "rev" -> Atom.DoubleA)
    val preLi: SubOp => SubOp = up =>
      new MapOp(new FilterOp(up, { t =>
        val ship = t(5).asInstanceOf[String]
        ship >= "1995-09-01" && ship < "1995-10-01"
      }), t => Array[Any](
        t(1),
        t(3).asInstanceOf[Double] * (1.0 - t(4).asInstanceOf[Double])), liKeyT)

    val aggT = TupleType.of("promo" -> Atom.DoubleA, "total" -> Atom.DoubleA)
    val post: SubOp => SubOp = up => new MapOp(up, { t =>
      val rev = t(2).asInstanceOf[Double]
      val promo = if (t(1).asInstanceOf[String].startsWith("PROMO")) rev else 0.0
      Array[Any](promo, rev)
    }, aggT)
    val agg: SubOp => SubOp = up => new Reduce(up, sumPairDouble)

    val spec = JoinSpec(cfg, preR = prePart, preS = preLi,
      postJoin = post, levelAgg = agg)
    val run = joinQuery(data.part -> PartT, data.lineitem -> LiT, spec)
    run.copy(rows = Seq(run.rows.headOption.fold(Array[Any](null)) { t =>
      Array[Any](100.0 * t(0).asInstanceOf[Double] / t(1).asInstanceOf[Double])
    }))
  }

  def q14DuckSql: String =
    """SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
      |    THEN CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE))
      |    ELSE 0 END)
      |  / sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE)))
      |  AS promo_revenue
      |FROM lineitem, part
      |WHERE l_partkey = p_partkey
      |  AND l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'""".stripMargin

  // ------------------------------------------------------------------ Q19

  /** Q19: discounted revenue — join on partkey with a disjunctive residual
    * predicate spanning both sides (single-side conjuncts are pushed into
    * the scans), then a global Reduce.
    */
  def q19(data: TpchData, cfg: DistConfig): QueryRun = {
    val partKeyT = TupleType.of("k" -> Atom.LongA, "brand" -> Atom.StringA,
      "container" -> Atom.StringA, "size" -> Atom.IntA)
    val smC = Set("SM CASE", "SM BOX", "SM PACK", "SM PKG")
    val medC = Set("MED BAG", "MED BOX", "MED PKG", "MED PACK")
    val lgC = Set("LG CASE", "LG BOX", "LG PACK", "LG PKG")
    val prePart: SubOp => SubOp = up =>
      new MapOp(new FilterOp(up, { t =>
        val brand = t(3).asInstanceOf[String]
        val size  = t(2).asInstanceOf[Int]
        (brand == "Brand#12" || brand == "Brand#23" || brand == "Brand#34") &&
          size >= 1 && size <= 15
      }), t => Array[Any](t(0), t(3), t(4), t(2)), partKeyT)

    val liKeyT = TupleType.of("k" -> Atom.LongA, "qty" -> Atom.DoubleA,
      "rev" -> Atom.DoubleA)
    val preLi: SubOp => SubOp = up =>
      new MapOp(new FilterOp(up, { t =>
        val mode = t(6).asInstanceOf[String]
        val qty  = t(2).asInstanceOf[Double]
        (mode == "AIR" || mode == "REG AIR") &&
          t(7).asInstanceOf[String] == "DELIVER IN PERSON" &&
          qty >= 1 && qty <= 30
      }), t => Array[Any](
        t(1), t(2),
        t(3).asInstanceOf[Double] * (1.0 - t(4).asInstanceOf[Double])), liKeyT)

    // joined: ⟨k, brand, container, size, qty, rev⟩
    val residual: Array[Any] => Boolean = { t =>
      val brand = t(1).asInstanceOf[String]
      val cont  = t(2).asInstanceOf[String]
      val size  = t(3).asInstanceOf[Int]
      val qty   = t(4).asInstanceOf[Double]
      (brand == "Brand#12" && smC(cont) && qty >= 1 && qty <= 11 && size <= 5) ||
      (brand == "Brand#23" && medC(cont) && qty >= 10 && qty <= 20 && size <= 10) ||
      (brand == "Brand#34" && lgC(cont) && qty >= 20 && qty <= 30 && size <= 15)
    }
    val revT = TupleType.of("revenue" -> Atom.DoubleA)
    val post: SubOp => SubOp = up =>
      new MapOp(new FilterOp(up, residual), t => Array[Any](t(5)), revT)
    val agg: SubOp => SubOp = up => new Reduce(up,
      (a, b) => Array[Any](a(0).asInstanceOf[Double] + b(0).asInstanceOf[Double]))

    val spec = JoinSpec(cfg, preR = prePart, preS = preLi,
      postJoin = post, levelAgg = agg)
    val run = joinQuery(data.part -> PartT, data.lineitem -> LiT, spec)
    if (run.rows.isEmpty) run.copy(rows = Seq(Array[Any](null))) else run
  }

  def q19DuckSql: String =
    """SELECT sum(CAST(l_extendedprice AS DOUBLE) * (1 - CAST(l_discount AS DOUBLE)))
      |  AS revenue
      |FROM lineitem, part
      |WHERE p_partkey = l_partkey
      |  AND l_shipmode IN ('AIR','REG AIR')
      |  AND l_shipinstruct = 'DELIVER IN PERSON'
      |  AND (
      |    (p_brand = 'Brand#12'
      |      AND p_container IN ('SM CASE','SM BOX','SM PACK','SM PKG')
      |      AND CAST(l_quantity AS DOUBLE) BETWEEN 1 AND 11
      |      AND CAST(p_size AS INT) BETWEEN 1 AND 5)
      |    OR (p_brand = 'Brand#23'
      |      AND p_container IN ('MED BAG','MED BOX','MED PKG','MED PACK')
      |      AND CAST(l_quantity AS DOUBLE) BETWEEN 10 AND 20
      |      AND CAST(p_size AS INT) BETWEEN 1 AND 10)
      |    OR (p_brand = 'Brand#34'
      |      AND p_container IN ('LG CASE','LG BOX','LG PACK','LG PKG')
      |      AND CAST(l_quantity AS DOUBLE) BETWEEN 20 AND 30
      |      AND CAST(p_size AS INT) BETWEEN 1 AND 15))""".stripMargin

  val All: Seq[(String, (TpchData, DistConfig) => QueryRun, String)] = Seq(
    ("Q4", q4 _, q4DuckSql),
    ("Q12", q12 _, q12DuckSql),
    ("Q14", q14 _, q14DuckSql),
    ("Q19", q19 _, q19DuckSql),
  )
}
