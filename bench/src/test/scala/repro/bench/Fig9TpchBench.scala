package repro.bench

import repro.SparkSpec
import BenchUtil._

/** Fig 9: TPC-H Q4/Q12/Q14/Q19 — Modularis vs a compiled in-memory SQL
  * engine ("MemSQL" = DuckDB over in-memory tables) and a generic
  * interpreted warehouse ("Presto" = the Volcano/CSV engine).
  * Paper shape: Modularis on par with (≤33 % slower than) MemSQL and
  * ~6–9× faster than Presto.
  */
class Fig9TpchBench extends SparkSpec {
  private val sf = envDouble("REPRO_TPCH_SF", 0.1)

  test("Fig 9 — TPC-H runtimes across the three engines") {
    println(TpchBench.run(spark, sf))
  }

  test("shape: the interpreted CSV engine is slower than Modularis read+exec") {
    import java.nio.file.Files
    import repro.baselines.VolcanoCsvEngine
    import repro.data.TpchLite
    import repro.plans.TpchPlans
    import repro.plans.PlanPieces.DistConfig

    val small = 0.05
    val tables = TpchLite.tables(spark, small)
    val dir = Files.createTempDirectory("tpch-shape").toFile
    val csv = VolcanoTpch.Tables(
      li = VolcanoCsvEngine.writeTable(tables("lineitem"), dir, "lineitem"),
      ord = VolcanoCsvEngine.writeTable(tables("orders"), dir, "orders"),
      part = VolcanoCsvEngine.writeTable(tables("part"), dir, "part"))
    val cfg = DistConfig(nRanks = 8, net = netFor(4), netBits = 5,
      localBits = 4, compress = false)

    System.gc()
    val modMs = minMs(3) {
      val d = TpchCsv.load(csv, 8, Set("lineitem", "orders"))
      TpchPlans.q4(d, cfg)
    }
    System.gc()
    val volMs = minMs(3) { VolcanoCsvEngine.run(VolcanoTpch.q4(csv)) }
    assert(volMs > modMs,
      s"interpreted engine ($volMs ms) should be slower than Modularis read+exec ($modMs ms)")
  }

  test("correctness: parallel CSV load equals the Spark-collected tables") {
    import java.nio.file.Files
    import repro.baselines.VolcanoCsvEngine
    import repro.data.TpchLite
    import repro.plans.TpchPlans

    val tables = TpchLite.tables(spark, 0.002)
    val dir = Files.createTempDirectory("tpch-roundtrip").toFile
    val csv = VolcanoTpch.Tables(
      li = VolcanoCsvEngine.writeTable(tables("lineitem"), dir, "lineitem"),
      ord = VolcanoCsvEngine.writeTable(tables("orders"), dir, "orders"),
      part = VolcanoCsvEngine.writeTable(tables("part"), dir, "part"))
    val fromCsv = TpchCsv.load(csv, 4)
    val fromDf  = TpchPlans.TpchData.fromTables(tables)
    def canon(a: Array[Array[Any]]) = a.map(_.mkString("|")).sorted.toSeq
    assert(canon(fromCsv.lineitem) == canon(fromDf.lineitem))
    assert(canon(fromCsv.orders) == canon(fromDf.orders))
    assert(canon(fromCsv.part) == canon(fromDf.part))
  }
}
