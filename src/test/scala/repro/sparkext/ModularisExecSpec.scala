package repro.sparkext

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, SynthData}

/** The Catalyst port: ModularisJoinExec / ModularisAggExec planned via
  * ModularisStrategy, oracle-checked against DuckDB.
  */
class ModularisExecSpec extends SparkSpec {

  private def withStrategy[T](f: => T): T = {
    spark.experimental.extraStrategies = Seq(ModularisStrategy)
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try f
    finally {
      spark.experimental.extraStrategies = Nil
      spark.conf.set("spark.sql.adaptive.enabled", "true")
    }
  }

  private lazy val t1: DataFrame =
    SynthData.uniformKeys(spark, 2000, 100, seed = 1).cache()
  private lazy val t2: DataFrame =
    SynthData.uniformKeys(spark, 500, 100, seed = 2)
      .withColumnRenamed("k", "k2").withColumnRenamed("v", "w").cache()
  // t1/t2 with every fifth key null, on both sides.
  private lazy val n1: DataFrame =
    t1.select(when(col("k") % 5 =!= 0, col("k")) as "k", col("v")).cache()
  private lazy val n2: DataFrame =
    t2.select(when(col("k2") % 5 =!= 0, col("k2")) as "k2", col("w")).cache()

  private def claims(df: DataFrame, op: String): Boolean =
    df.queryExecution.executedPlan.toString.contains(op)

  test("equi-join is planned as ModularisJoinExec") {
    withStrategy {
      val df = t1.join(t2, t1("k") === t2("k2"))
      assert(df.queryExecution.executedPlan.toString.contains("ModularisJoin"))
    }
  }

  test("inner join result matches DuckDB") {
    withStrategy {
      val df = t1.join(t2, t1("k") === t2("k2"))
        .select(t1("k") as "k", t1("v") as "v", t2("w") as "w")
      Oracle.assertEquivalent(df,
        "SELECT t1.k AS k, CAST(t1.v AS DOUBLE) AS v, CAST(t2.w AS DOUBLE) AS w " +
        "FROM t1 JOIN t2 ON t1.k = t2.k2",
        "t1" -> t1, "t2" -> t2)
    }
  }

  test("inner join agrees with default Spark planner") {
    val expected = t1.join(t2, t1("k") === t2("k2")).count()
    val got = withStrategy { t1.join(t2, t1("k") === t2("k2")).count() }
    assert(got == expected)
  }

  test("left semi join uses the Semi BuildProbe variant and matches DuckDB") {
    withStrategy {
      val df = t1.join(t2, t1("k") === t2("k2"), "left_semi")
      assert(df.queryExecution.executedPlan.toString.contains("ModularisJoin"))
      Oracle.assertEquivalent(
        df.select(col("k"), col("v")),
        "SELECT k, CAST(v AS DOUBLE) AS v FROM t1 WHERE k IN (SELECT k2 FROM t2)",
        "t1" -> t1, "t2" -> t2)
    }
  }

  test("left anti join matches DuckDB") {
    withStrategy {
      val df = t1.join(t2, t1("k") === t2("k2"), "left_anti")
      Oracle.assertEquivalent(
        df.select(col("k"), col("v")),
        "SELECT k, CAST(v AS DOUBLE) AS v FROM t1 " +
        "WHERE NOT EXISTS (SELECT 1 FROM t2 WHERE t2.k2 = t1.k)",
        "t1" -> t1, "t2" -> t2)
    }
  }

  test("inner join with a non-equi residual runs it as a FilterOp and matches DuckDB") {
    withStrategy {
      val df = t1.join(t2, t1("k") === t2("k2") && t1("v") < t2("w"))
        .select(t1("k") as "k", t1("v") as "v", t2("w") as "w")
      assert(claims(df, "ModularisJoin"))
      Oracle.assertEquivalent(df,
        "SELECT t1.k AS k, CAST(t1.v AS DOUBLE) AS v, CAST(t2.w AS DOUBLE) AS w " +
        "FROM t1 JOIN t2 ON t1.k = t2.k2 AND CAST(t1.v AS DOUBLE) < CAST(t2.w AS DOUBLE)",
        "t1" -> t1, "t2" -> t2)
    }
  }

  test("semi and anti joins with a residual are left to Spark and stay correct") {
    withStrategy {
      val cond = t1("k") === t2("k2") && t1("v") < t2("w")
      val exists = "EXISTS (SELECT 1 FROM t2 WHERE t2.k2 = t1.k " +
        "AND CAST(t1.v AS DOUBLE) < CAST(t2.w AS DOUBLE))"
      for ((jt, where) <- Seq("left_semi" -> exists, "left_anti" -> s"NOT $exists")) {
        val df = t1.join(t2, cond, jt).select(col("k"), col("v"))
        assert(!claims(df, "ModularisJoin"), jt)
        Oracle.assertEquivalent(df,
          s"SELECT k, CAST(v AS DOUBLE) AS v FROM t1 WHERE $where", "t1" -> t1, "t2" -> t2)
      }
    }
  }

  test("null join keys match nothing in inner, semi and anti joins") {
    // Without this rule's inferred `isnotnull` filters, the null keys reach
    // BuildProbe instead of being dropped before the join.
    val rule = "spark.sql.optimizer.excludedRules"
    spark.conf.set(rule, "org.apache.spark.sql.catalyst.optimizer.InferFiltersFromConstraints")
    try withStrategy {
      val on = n1("k") === n2("k2")
      val inner = n1.join(n2, on).select(n1("k") as "k", n1("v") as "v", n2("w") as "w")
      val semi = n1.join(n2, on, "left_semi").select(col("k"), col("v"))
      val anti = n1.join(n2, on, "left_anti").select(col("k"), col("v"))
      Seq(inner, semi, anti).foreach(df => assert(claims(df, "ModularisJoin")))
      val tables = Seq("n1" -> n1, "n2" -> n2)
      Oracle.assertEquivalent(inner,
        "SELECT n1.k AS k, CAST(n1.v AS DOUBLE) AS v, CAST(n2.w AS DOUBLE) AS w " +
        "FROM n1 JOIN n2 ON n1.k = n2.k2", tables: _*)
      val matching = "(SELECT 1 FROM n2 WHERE n2.k2 = n1.k)"
      Oracle.assertEquivalent(semi,
        s"SELECT k, CAST(v AS DOUBLE) AS v FROM n1 WHERE EXISTS $matching", tables: _*)
      Oracle.assertEquivalent(anti,
        s"SELECT k, CAST(v AS DOUBLE) AS v FROM n1 WHERE NOT EXISTS $matching", tables: _*)
    } finally spark.conf.unset(rule)
  }

  test("grouped aggregation is planned as ModularisAggExec") {
    withStrategy {
      val df = t1.groupBy("k").agg(sum("v") as "sv", count(lit(1)) as "c")
      assert(df.queryExecution.executedPlan.toString.contains("ModularisAgg"))
    }
  }

  test("grouped sum/count matches DuckDB") {
    withStrategy {
      val df = t1.groupBy("k").agg(sum("v") as "sv", count(lit(1)) as "c")
      Oracle.assertEquivalent(df,
        "SELECT k, sum(CAST(v AS DOUBLE)) AS sv, count(*) AS c FROM t1 GROUP BY k",
        "t1" -> t1)
    }
  }

  test("grouped int sum and nullable count/sum match DuckDB") {
    withStrategy {
      // i: an int column; n: null for every third key
      val t3 = t1.select(col("k"), (col("k") % 7).cast("int") as "i",
        when(col("k") % 3 =!= 0, col("k")) as "n")
      val df = t3.groupBy("k").agg(sum("i") as "si", count("n") as "cn", sum("n") as "sn")
      assert(df.queryExecution.executedPlan.toString.contains("ModularisAgg"))
      Oracle.assertEquivalent(df,
        "SELECT k, sum(CAST(i AS INT)) AS si, count(n) AS cn, " +
        "sum(CAST(n AS BIGINT)) AS sn FROM t3 GROUP BY k",
        "t3" -> t3)
    }
  }

  test("arithmetic over aggregates is projected by ModularisAggExec and matches DuckDB") {
    withStrategy {
      val df = t1.groupBy("k").agg(sum("v") / count(lit(1)) as "mean", count(lit(1)) + 1 as "c1")
      assert(claims(df, "ModularisAgg"))
      Oracle.assertEquivalent(df,
        "SELECT k, sum(CAST(v AS DOUBLE)) / count(*) AS mean, count(*) + 1 AS c1 " +
        "FROM t1 GROUP BY k",
        "t1" -> t1)
      val empty = t1.filter("k < 0").agg(sum("v") / count(lit(1)) as "mean")
      assert(claims(empty, "ModularisAgg"))
      assert(empty.collect().toSeq.map(_.isNullAt(0)) == Seq(true))
    }
  }

  test("groupless aggregation matches DuckDB") {
    withStrategy {
      val df = t1.agg(sum("v") as "sv", count(lit(1)) as "c")
      Oracle.assertEquivalent(df,
        "SELECT sum(CAST(v AS DOUBLE)) AS sv, count(*) AS c FROM t1",
        "t1" -> t1)
    }
  }

  test("groupless aggregation over empty input emits the SQL one-row result") {
    withStrategy {
      val empty = t1.filter("k < 0")
      val df = empty.agg(count(lit(1)) as "c")
      assert(df.queryExecution.executedPlan.toString.contains("ModularisAgg"))
      val rows = df.collect()
      assert(rows.length == 1 && rows(0).getLong(0) == 0L)
    }
  }

  test("join + aggregation compose (both Modularis operators in one plan)") {
    withStrategy {
      val df = t1.join(t2, t1("k") === t2("k2"))
        .groupBy(t1("k") as "k").agg(count(lit(1)) as "c")
      val s = df.queryExecution.executedPlan.toString
      assert(s.contains("ModularisJoin") && s.contains("ModularisAgg"))
      Oracle.assertEquivalent(df,
        "SELECT t1.k AS k, count(*) AS c FROM t1 JOIN t2 ON t1.k = t2.k2 GROUP BY t1.k",
        "t1" -> t1, "t2" -> t2)
    }
  }

  test("unsupported shapes fall back to the default planner") {
    withStrategy {
      // non-equi join condition → not claimed by the strategy
      val df = t1.join(t2, t1("k") < t2("k2"))
      assert(!df.queryExecution.executedPlan.toString.contains("ModularisJoin"))
      // distinct aggregate → not claimed
      val dfa = t1.groupBy("k").agg(countDistinct("v") as "c")
      assert(!dfa.queryExecution.executedPlan.toString.contains("ModularisAgg"))
    }
  }

  test("strategy works under adaptive query execution too") {
    spark.experimental.extraStrategies = Seq(ModularisStrategy)
    try {
      val df = t1.join(t2, t1("k") === t2("k2"))
        .select(t1("k") as "k", t2("w") as "w")
      Oracle.assertEquivalent(df,
        "SELECT t1.k AS k, CAST(t2.w AS DOUBLE) AS w FROM t1 JOIN t2 ON t1.k = t2.k2",
        "t1" -> t1, "t2" -> t2)
    } finally spark.experimental.extraStrategies = Nil
  }
}
