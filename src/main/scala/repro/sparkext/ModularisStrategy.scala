package repro.sparkext

import org.apache.spark.sql.SparkSessionExtensions
import org.apache.spark.sql.execution.SparkStrategy
import org.apache.spark.sql.catalyst.expressions.Attribute
import org.apache.spark.sql.catalyst.expressions.aggregate.{
  AggregateExpression, Count, Sum}
import org.apache.spark.sql.catalyst.planning.{ExtractEquiJoinKeys, PhysicalAggregation}
import org.apache.spark.sql.catalyst.plans.{Inner, LeftAnti, LeftSemi}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.types.{DoubleType, IntegerType, LongType}

/** Planner strategy injecting the Modularis physical operators: equi-joins
  * become [[ModularisJoinExec]] and SUM/COUNT aggregations become
  * [[ModularisAggExec]]. Plan shapes are recognised by Catalyst's own
  * extractors (`ExtractEquiJoinKeys`, `PhysicalAggregation`), the ones
  * Spark's planner uses. Anything else returns Nil and falls through to the
  * default Spark planner — the strategy only claims the shapes the paper's
  * execution layer implements.
  */
object ModularisStrategy extends SparkStrategy {

  /** Non-distinct, unfiltered SUM over Long/Int/Double, or single-argument COUNT. */
  private def supported(ae: AggregateExpression): Boolean =
    !ae.isDistinct && ae.filter.isEmpty && (ae.aggregateFunction match {
      case Sum(e, _) =>
        e.dataType == LongType || e.dataType == IntegerType || e.dataType == DoubleType
      case Count(Seq(_)) => true
      case _             => false
    })

  override def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    // BuildProbe's semi/anti variants stop at the first key match, so only
    // an inner join can run its residual condition as a filter afterwards.
    case ExtractEquiJoinKeys(jt @ (Inner | LeftSemi | LeftAnti), lk, rk, residual, _, left, right, _)
        if jt == Inner || residual.isEmpty =>
      ModularisJoinExec(lk, rk, jt, residual, planLater(left), planLater(right)) :: Nil
    case PhysicalAggregation(grouping, aggs, results, child)
        if grouping.forall(_.isInstanceOf[Attribute]) && aggs.forall(supported) =>
      ModularisAggExec(grouping.map(_.toAttribute), aggs, results, planLater(child)) :: Nil
    case _ => Nil
  }
}

/** `SparkSessionExtensions` injector:
  * `.config("spark.sql.extensions", "repro.sparkext.ModularisExtensions")`.
  */
class ModularisExtensions extends (SparkSessionExtensions => Unit) {
  override def apply(ext: SparkSessionExtensions): Unit =
    ext.injectPlannerStrategy(_ => ModularisStrategy)
}
