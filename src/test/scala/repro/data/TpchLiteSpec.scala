package repro.data

import repro.SparkSpec

class TpchLiteSpec extends SparkSpec {
  private lazy val li  = TpchLite.lineitem(spark, 0.002).cache()
  private lazy val ord = TpchLite.orders(spark, 0.002).cache()
  private lazy val prt = TpchLite.part(spark, 0.002).cache()

  test("lineitem has the Q12/Q19 columns") {
    val cols = li.columns.toSet
    assert(Set("l_shipmode", "l_shipinstruct", "l_commitdate", "l_receiptdate")
      .subsetOf(cols))
  }

  test("orders has o_orderpriority") {
    assert(ord.columns.contains("o_orderpriority"))
  }

  test("part has brand and container") {
    assert(Set("p_brand", "p_container").subsetOf(prt.columns.toSet))
  }

  test("ship modes come from the TPC-H domain") {
    val modes = li.select("l_shipmode").distinct().collect().map(_.getString(0)).toSet
    assert(modes.subsetOf(TpchLite.ShipModes.toSet))
    assert(modes.size > 1)
  }

  test("order priorities come from the TPC-H domain") {
    val pris = ord.select("o_orderpriority").distinct().collect().map(_.getString(0)).toSet
    assert(pris.subsetOf(TpchLite.OrderPriorities.toSet))
  }

  test("brands and containers come from the TPC-H domain") {
    val brands = prt.select("p_brand").distinct().collect().map(_.getString(0)).toSet
    assert(brands.subsetOf(TpchLite.Brands.toSet))
    val conts = prt.select("p_container").distinct().collect().map(_.getString(0)).toSet
    assert(conts.subsetOf(TpchLite.Containers.toSet))
  }

  test("commitdate and receiptdate straddle shipdate realistically") {
    import org.apache.spark.sql.functions._
    val bad = li.filter(col("l_commitdate") <= col("l_shipdate") ||
      col("l_receiptdate") <= col("l_shipdate")).count()
    assert(bad == 0)
    // some rows must satisfy Q4/Q12's l_commitdate < l_receiptdate
    val some = li.filter(col("l_commitdate") < col("l_receiptdate")).count()
    assert(some > 0)
  }

  test("cardinalities scale with sf") {
    assert(li.count() == 12000) // 6M * 0.002
    assert(ord.count() == 3000)
    assert(prt.count() == 400)
  }

  test("tables() caches the three query tables") {
    val t = TpchLite.tables(spark, 0.001)
    assert(t.keySet == Set("lineitem", "orders", "part"))
    t.values.foreach(df => assert(df.storageLevel.useMemory))
  }
}
