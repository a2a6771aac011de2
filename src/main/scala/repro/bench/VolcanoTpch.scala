package repro.bench

import java.io.File

import org.apache.spark.sql.DataFrame

import repro.baselines.VolcanoCsvEngine._

/** The paper's four TPC-H queries as operator trees for the interpreted
  * Volcano/CSV engine (the Presto stand-in of Fig 9). Each run re-scans the
  * CSV storage layer, like Presto re-reading HDFS.
  */
object VolcanoTpch {

  final case class Tables(
      li: (File, Schema), ord: (File, Schema), part: (File, Schema))

  object Tables {
    /** The CSV storage of Fig 9: write the lineitem, orders and part
      * tables into `dir`, one `<name>.csv` file each.
      */
    def write(tables: Map[String, DataFrame], dir: File): Tables = {
      def csv(name: String) = writeTable(tables(name), dir, name)
      Tables(csv("lineitem"), csv("orders"), csv("part"))
    }
  }

  def q4(t: Tables): Op = {
    val (liF, liS) = t.li; val (ordF, ordS) = t.ord
    val lineitem = Filter(CsvScan(liF, liS),
      Cmp("<", Col(liS.idx("l_commitdate")), Col(liS.idx("l_receiptdate"))))
    val orders = Filter(CsvScan(ordF, ordS), And(Seq(
      Cmp(">=", Col(ordS.idx("o_orderdate")), Lit("1993-07-01")),
      Cmp("<", Col(ordS.idx("o_orderdate")), Lit("1993-10-01")))))
    val semi = HashJoin(lineitem, orders,
      liS.idx("l_orderkey"), ordS.idx("o_orderkey"), semi = true)
    HashAgg(semi, Seq(ordS.idx("o_orderpriority")), Seq(("count", Lit(1L))))
  }

  def q12(t: Tables): Op = {
    val (liF, liS) = t.li; val (ordF, ordS) = t.ord
    val lineitem = Filter(CsvScan(liF, liS), And(Seq(
      In(Col(liS.idx("l_shipmode")), Set[Any]("MAIL", "SHIP")),
      Cmp("<", Col(liS.idx("l_commitdate")), Col(liS.idx("l_receiptdate"))),
      Cmp("<", Col(liS.idx("l_shipdate")), Col(liS.idx("l_commitdate"))),
      Cmp(">=", Col(liS.idx("l_receiptdate")), Lit("1994-01-01")),
      Cmp("<", Col(liS.idx("l_receiptdate")), Lit("1995-01-01")))))
    val joined = HashJoin(CsvScan(ordF, ordS), lineitem,
      ordS.idx("o_orderkey"), liS.idx("l_orderkey"), semi = false)
    val js = joined.schema
    val pri = Col(js.idx("o_orderpriority"))
    val high = Case(In(pri, Set[Any]("1-URGENT", "2-HIGH")),
      Lit(java.lang.Double.valueOf(1.0)), Lit(java.lang.Double.valueOf(0.0)))
    val low = Case(In(pri, Set[Any]("1-URGENT", "2-HIGH")),
      Lit(java.lang.Double.valueOf(0.0)), Lit(java.lang.Double.valueOf(1.0)))
    HashAgg(joined, Seq(js.idx("l_shipmode")),
      Seq(("sum", high), ("sum", low)))
  }

  def q14(t: Tables): Op = {
    val (liF, liS) = t.li; val (pF, pS) = t.part
    val lineitem = Filter(CsvScan(liF, liS), And(Seq(
      Cmp(">=", Col(liS.idx("l_shipdate")), Lit("1995-09-01")),
      Cmp("<", Col(liS.idx("l_shipdate")), Lit("1995-10-01")))))
    val joined = HashJoin(CsvScan(pF, pS), lineitem,
      pS.idx("p_partkey"), liS.idx("l_partkey"), semi = false)
    val js = joined.schema
    val rev = Arith("*", Col(js.idx("l_extendedprice")),
      Arith("-", Lit(java.lang.Double.valueOf(1.0)), Col(js.idx("l_discount"))))
    val promo = Case(StartsWith(Col(js.idx("p_type")), "PROMO"),
      rev, Lit(java.lang.Double.valueOf(0.0)))
    HashAgg(joined, Nil, Seq(("sum", promo), ("sum", rev)))
  }

  def q19(t: Tables): Op = {
    val (liF, liS) = t.li; val (pF, pS) = t.part
    val lineitem = Filter(CsvScan(liF, liS), And(Seq(
      In(Col(liS.idx("l_shipmode")), Set[Any]("AIR", "REG AIR")),
      Cmp("=", Col(liS.idx("l_shipinstruct")), Lit("DELIVER IN PERSON")))))
    val joined = HashJoin(CsvScan(pF, pS), lineitem,
      pS.idx("p_partkey"), liS.idx("l_partkey"), semi = false)
    val js = joined.schema
    def branch(brand: String, conts: Set[Any], qLo: Double, qHi: Double, sHi: Long) = And(Seq(
      Cmp("=", Col(js.idx("p_brand")), Lit(brand)),
      In(Col(js.idx("p_container")), conts),
      Cmp(">=", Col(js.idx("l_quantity")), Lit(java.lang.Double.valueOf(qLo))),
      Cmp("<=", Col(js.idx("l_quantity")), Lit(java.lang.Double.valueOf(qHi))),
      Cmp(">=", Col(js.idx("p_size")), Lit(java.lang.Long.valueOf(1L))),
      Cmp("<=", Col(js.idx("p_size")), Lit(java.lang.Long.valueOf(sHi)))))
    val residual = Or(Seq(
      branch("Brand#12", Set[Any]("SM CASE", "SM BOX", "SM PACK", "SM PKG"), 1, 11, 5),
      branch("Brand#23", Set[Any]("MED BAG", "MED BOX", "MED PKG", "MED PACK"), 10, 20, 10),
      branch("Brand#34", Set[Any]("LG CASE", "LG BOX", "LG PACK", "LG PKG"), 20, 30, 15)))
    val rev = Arith("*", Col(js.idx("l_extendedprice")),
      Arith("-", Lit(java.lang.Double.valueOf(1.0)), Col(js.idx("l_discount"))))
    HashAgg(Filter(joined, residual), Nil, Seq(("sum", rev)))
  }

  val All: Seq[(String, Tables => Op)] =
    Seq(("Q4", q4 _), ("Q12", q12 _), ("Q14", q14 _), ("Q19", q19 _))
}
