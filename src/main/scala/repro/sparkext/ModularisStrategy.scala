package repro.sparkext

import org.apache.spark.sql.SparkSessionExtensions
import org.apache.spark.sql.execution.SparkStrategy
import org.apache.spark.sql.catalyst.expressions.{
  Alias, AttributeReference, EqualTo, Expression, NamedExpression}
import org.apache.spark.sql.catalyst.expressions.aggregate.{
  AggregateExpression, Count, Sum}
import org.apache.spark.sql.catalyst.plans.{Inner, LeftAnti, LeftSemi}
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Join, LogicalPlan}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.types.{DoubleType, IntegerType, LongType}

/** Planner strategy injecting the Modularis physical operators: equi-joins
  * become [[ModularisJoinExec]] and simple grouped aggregations become
  * [[ModularisAggExec]]. Anything else returns Nil and falls through to the
  * default Spark planner — the strategy only claims the shapes the paper's
  * execution layer implements.
  */
object ModularisStrategy extends SparkStrategy {

  /** Split a conjunctive equi-join condition into left/right key lists.
    * Returns None if any conjunct is not a two-sided equality.
    */
  private def equiKeys(
      cond: Expression,
      left: LogicalPlan,
      right: LogicalPlan,
  ): Option[(Seq[Expression], Seq[Expression])] = {
    def conjuncts(e: Expression): Seq[Expression] = e match {
      case org.apache.spark.sql.catalyst.expressions.And(l, r) =>
        conjuncts(l) ++ conjuncts(r)
      case other => Seq(other)
    }
    val lOut = left.outputSet
    val rOut = right.outputSet
    val pairs = conjuncts(cond).map {
      case EqualTo(a, b) if a.references.subsetOf(lOut) && b.references.subsetOf(rOut) =>
        Some((a, b))
      case EqualTo(a, b) if a.references.subsetOf(rOut) && b.references.subsetOf(lOut) =>
        Some((b, a))
      case _ => None
    }
    if (pairs.forall(_.isDefined) && pairs.nonEmpty) Some {
      val ps = pairs.flatten
      (ps.map(_._1), ps.map(_._2))
    }
    else None
  }

  private def supportedAgg(agg: Aggregate): Boolean = {
    val groupingOk = agg.groupingExpressions.forall(_.isInstanceOf[AttributeReference])
    def fnOk(ae: AggregateExpression): Boolean =
      !ae.isDistinct && ae.filter.isEmpty && (ae.aggregateFunction match {
        case Sum(e, _) =>
          e.dataType == LongType || e.dataType == IntegerType || e.dataType == DoubleType
        case Count(Seq(_)) => true
        case _             => false
      })
    val resultOk = agg.aggregateExpressions.forall {
      case _: AttributeReference         => true
      case Alias(ae: AggregateExpression, _) => fnOk(ae)
      case Alias(_: AttributeReference, _)   => true
      case _                             => false
    }
    groupingOk && resultOk
  }

  override def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case Join(left, right, jt @ (Inner | LeftSemi | LeftAnti), Some(cond), _) =>
      equiKeys(cond, left, right) match {
        case Some((lk, rk)) =>
          ModularisJoinExec(lk, rk, jt, planLater(left), planLater(right)) :: Nil
        case None => Nil
      }
    case agg: Aggregate if supportedAgg(agg) =>
      ModularisAggExec(
        agg.groupingExpressions.map(_.asInstanceOf[AttributeReference]),
        agg.aggregateExpressions.map(_.asInstanceOf[NamedExpression]),
        planLater(agg.child)) :: Nil
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
