package repro.sparkext

import repro.{Oracle, SparkSpec}
import repro.data.TpchLite
import repro.plans.TpchPlans

/** The paper's TPC-H queries (the SQL of [[TpchPlans.All]]) executed on
  * Spark with the Modularis strategy injected — the join (incl. the Q4
  * EXISTS→semi-join rewrite) runs on ModularisJoinExec; results
  * oracle-checked against DuckDB running the same SQL.
  */
class TpchOnSparkSpec extends SparkSpec {
  private val sf = 0.005
  private lazy val tables = {
    val t = TpchLite.tables(spark, sf)
    t.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    t
  }

  private def withStrategy[T](f: => T): T = {
    tables // force generation + temp-view registration before any spark.sql
    spark.experimental.extraStrategies = Seq(ModularisStrategy)
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try f
    finally {
      spark.experimental.extraStrategies = Nil
      spark.conf.set("spark.sql.adaptive.enabled", "true")
    }
  }

  private def oracleTables = Seq(
    "lineitem" -> tables("lineitem"),
    "orders"   -> tables("orders"),
    "part"     -> tables("part"))

  // Q19's join condition carries a two-sided OR, which the strategy does not
  // claim, so Q19 runs on Spark's own join and gets no plan assertion.
  private val onModularisJoin = Set("Q4", "Q12", "Q14")
  private val names =
    Map("Q4" -> "Q4 via Spark SQL uses ModularisJoinExec for the EXISTS semi-join")

  TpchPlans.All.foreach { case (q, _, sql) =>
    test(names.getOrElse(q, s"$q via Spark SQL matches DuckDB")) {
      withStrategy {
        val df = spark.sql(sql)
        if (onModularisJoin(q))
          assert(df.queryExecution.executedPlan.toString.contains("ModularisJoin"))
        Oracle.assertEquivalent(df, sql, oracleTables: _*)
      }
    }
  }
}
