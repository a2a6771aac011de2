package repro.baselines

import java.nio.file.Files

import repro.SparkSpec
import repro.data.TpchLite
import VolcanoCsvEngine._

class VolcanoEngineSpec extends SparkSpec {
  private lazy val dir = Files.createTempDirectory("volcano").toFile
  private lazy val (liFile, liSchema) =
    writeTable(TpchLite.lineitem(spark, 0.002).cache(), dir, "lineitem")
  private lazy val (ordFile, ordSchema) =
    writeTable(TpchLite.orders(spark, 0.002).cache(), dir, "orders")

  test("CsvScan round-trips types") {
    val rows = VolcanoCsvEngine.run(CsvScan(ordFile, ordSchema))
    assert(rows.size == 3000)
    val r = rows.head
    assert(r(ordSchema.idx("o_orderkey")).isInstanceOf[java.lang.Long])
    assert(r(ordSchema.idx("o_totalprice")).isInstanceOf[java.lang.Double])
    assert(r(ordSchema.idx("o_orderdate")).isInstanceOf[String])
  }

  test("CsvScan closes its file once the scan is exhausted") {
    val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.UnixOperatingSystemMXBean]
    VolcanoCsvEngine.run(CsvScan(ordFile, ordSchema)) // writes the file first
    val before = os.getOpenFileDescriptorCount
    (1 to 50).foreach(_ => VolcanoCsvEngine.run(CsvScan(ordFile, ordSchema)))
    // Unclosed, each scan would hold one descriptor until GC; allow some
    // slack for descriptors other threads open meanwhile.
    assert(os.getOpenFileDescriptorCount - before < 10)
  }

  test("Filter + comparison expressions") {
    val i = ordSchema.idx("o_orderdate")
    val out = VolcanoCsvEngine.run(Filter(CsvScan(ordFile, ordSchema),
      And(Seq(Cmp(">=", Col(i), Lit("1993-07-01")), Cmp("<", Col(i), Lit("1993-10-01"))))))
    val exp = TpchLite.orders(spark, 0.002)
      .filter("o_orderdate >= '1993-07-01' and o_orderdate < '1993-10-01'").count()
    assert(out.size.toLong == exp)
  }

  test("In / StartsWith / Case / Arith expressions") {
    val m = liSchema.idx("l_shipmode")
    val out = VolcanoCsvEngine.run(Filter(CsvScan(liFile, liSchema),
      In(Col(m), Set[Any]("MAIL", "SHIP"))))
    assert(out.nonEmpty)
    assert(out.forall(r => r(m) == "MAIL" || r(m) == "SHIP"))
    val row = Array[Any](java.lang.Double.valueOf(10.0), "PROMO ANVIL")
    assert(StartsWith(Col(1), "PROMO").eval(row) == java.lang.Boolean.TRUE)
    assert(Case(StartsWith(Col(1), "PROMO"), Col(0), Lit(java.lang.Double.valueOf(0.0)))
      .eval(row) == java.lang.Double.valueOf(10.0))
    assert(Arith("*", Col(0), Lit(java.lang.Double.valueOf(2.0)))
      .eval(row) == java.lang.Double.valueOf(20.0))
  }

  test("HashJoin inner matches Spark") {
    val jo = HashJoin(
      build = CsvScan(ordFile, ordSchema),
      probe = CsvScan(liFile, liSchema),
      buildKey = ordSchema.idx("o_orderkey"),
      probeKey = liSchema.idx("l_orderkey"),
      semi = false)
    val got = VolcanoCsvEngine.run(jo).size.toLong
    val li  = TpchLite.lineitem(spark, 0.002)
    val ord = TpchLite.orders(spark, 0.002)
    val exp = li.join(ord, li("l_orderkey") === ord("o_orderkey")).count()
    assert(got == exp)
  }

  test("HashJoin semi keeps probe rows once") {
    val jo = HashJoin(
      build = CsvScan(liFile, liSchema),
      probe = CsvScan(ordFile, ordSchema),
      buildKey = liSchema.idx("l_orderkey"),
      probeKey = ordSchema.idx("o_orderkey"),
      semi = true)
    val got = VolcanoCsvEngine.run(jo).size.toLong
    val li  = TpchLite.lineitem(spark, 0.002).select("l_orderkey").distinct()
    val ord = TpchLite.orders(spark, 0.002)
    val expected = ord
      .join(li, ord("o_orderkey") === li("l_orderkey"), "left_semi")
      .count()
    assert(got == expected)
  }

  test("HashAgg grouped counts match Spark") {
    val agg = HashAgg(
      CsvScan(ordFile, ordSchema),
      groupCols = Seq(ordSchema.idx("o_orderpriority")),
      aggs = Seq(("count", Lit(1L))))
    val got = VolcanoCsvEngine.run(agg).map(r => r(0).asInstanceOf[String] -> r(1).asInstanceOf[Long]).toMap
    val exp = TpchLite.orders(spark, 0.002).groupBy("o_orderpriority").count()
      .collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(got == exp)
  }

  test("HashAgg groupless emits one row on empty input") {
    val agg = HashAgg(
      Filter(CsvScan(ordFile, ordSchema), Cmp("<", Col(0), Lit(java.lang.Long.valueOf(-1L)))),
      groupCols = Nil,
      aggs = Seq(("count", Lit(1L)), ("sum", Col(ordSchema.idx("o_totalprice")))))
    val rows = VolcanoCsvEngine.run(agg)
    assert(rows.size == 1)
    assert(rows(0)(0) == java.lang.Long.valueOf(0L))
  }
}
