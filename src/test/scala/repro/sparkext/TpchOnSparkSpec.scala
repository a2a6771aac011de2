package repro.sparkext

import repro.{Oracle, SparkSpec}
import repro.data.TpchLite
import repro.plans.TpchPlans

/** The paper's TPC-H queries (the SQL of [[TpchPlans.All]]) executed on
  * Spark with the Modularis strategy injected — every query's join (incl.
  * the Q4 EXISTS→semi-join rewrite and Q19's residual OR) runs on
  * ModularisJoinExec and its aggregate on ModularisAggExec; results
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

  private val names =
    Map("Q4" -> "Q4 via Spark SQL uses ModularisJoinExec for the EXISTS semi-join")

  TpchPlans.All.foreach { case (q, _, sql) =>
    test(names.getOrElse(q, s"$q via Spark SQL matches DuckDB")) {
      withStrategy {
        val df = spark.sql(sql)
        val plan = df.queryExecution.executedPlan.toString
        assert(plan.contains("ModularisJoin") && plan.contains("ModularisAgg"), plan)
        Oracle.assertEquivalent(df, sql, tables.toSeq: _*)
      }
    }
  }
}
